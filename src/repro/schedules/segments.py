"""Segment emitters: schedule stretches as C-level iterators.

A generator's step stream is a chain of *segments*: stretches during which
the set of alive processes does not change, each emitted as one C-level
iterator (``itertools`` objects, ``map``/``filter``, lists).  A generator's
``_emit`` returns ``itertools.chain.from_iterable`` over a Python generator
of segments, so the Python generator resumes once per segment and
:meth:`~repro.schedules.base.ScheduleGenerator.compile` fills its buffer at
C speed.

Every helper here is a sub-generator: it yields the segments of one stretch
that starts at global step ``step`` and *returns* the global step after the
stretch (``step = yield from rotation(...)``).  Crash steps come from
:meth:`~repro.runtime.crash.CrashPattern.alive_span`, and no segment
crosses one.  A stretch over a universe with nobody alive raises
:class:`~repro.errors.ConfigurationError` with the caller's message when its
first missing step is requested, exactly where a per-step emitter would.
"""

from __future__ import annotations

import random
import sys
from itertools import cycle, islice, repeat
from typing import Generator, Iterable, Sequence

from ..errors import ConfigurationError
from ..runtime.crash import CrashPattern
from ..types import ProcessId

#: A sub-generator of segments that returns the global step after its stretch.
Segments = Generator[Iterable[ProcessId], None, int]

#: Stretch length of a schedule that never ends.
FOREVER = sys.maxsize


def rotation(
    crash_pattern: CrashPattern,
    order: Sequence[ProcessId],
    step: int,
    length: int,
    empty_message: str,
) -> Segments:
    """``length`` steps of round-robin over ``order``, starting at ``order[0]``.

    Per step this is: take the next process of ``order`` (cyclically) that is
    alive at the current step, skipping crashed ones.  Between crash steps
    that is one ``islice(cycle(alive), m)`` with ``alive`` rotated to the
    process the cursor has reached.
    """
    position = {pid: index for index, pid in enumerate(order)}
    cursor = 0
    end = min(step + length, FOREVER)
    while step < end:
        alive, until = crash_pattern.alive_span(order, step)
        if not alive:
            raise ConfigurationError(empty_message)
        start = next((i for i, pid in enumerate(alive) if position[pid] >= cursor), 0)
        ring = alive[start:] + alive[:start]
        count = min(end, until) - step
        yield islice(cycle(ring), count)
        step += count
        cursor = position[ring[(count - 1) % len(ring)]] + 1
    return step


def uniform(
    crash_pattern: CrashPattern,
    universe: Sequence[ProcessId],
    rng: random.Random,
    step: int,
    length: int,
    empty_message: str,
) -> Segments:
    """``length`` steps, each ``rng.choice`` of the members of ``universe`` alive then.

    ``Random.choice(seq)`` draws ``getrandbits(len(seq).bit_length())``
    until the draw is below ``len(seq)`` and indexes ``seq`` with it
    (``Random._randbelow_with_getrandbits``).  A segment replays exactly that
    rejection loop as ``filter`` over ``map(getrandbits, ...)``, so it draws
    the same RNG words as ``m`` separate ``choice`` calls.  The family
    conformance tests pin this against real ``choice`` calls.
    """
    getrandbits = rng.getrandbits
    end = min(step + length, FOREVER)
    while step < end:
        alive, until = crash_pattern.alive_span(universe, step)
        if not alive:
            raise ConfigurationError(empty_message)
        size = len(alive)
        count = min(end, until) - step
        draws = filter(size.__gt__, map(getrandbits, repeat(size.bit_length())))
        yield map(alive.__getitem__, islice(draws, count))
        step += count
    return step


def sweep(crash_pattern: CrashPattern, order: Sequence[ProcessId], step: int) -> Segments:
    """One pass over ``order``: each member alive at its turn takes one step."""
    pending = list(order)
    while pending:
        alive, until = crash_pattern.alive_span(pending, step)
        taken = alive[: until - step]
        if taken:
            yield taken
        step += len(taken)
        if len(taken) == len(alive):
            break
        pending = pending[pending.index(taken[-1]) + 1 :]
    return step
