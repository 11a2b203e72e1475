"""Schedules: the execution skeleton of the paper's shared-memory model.

Section 2 of the paper defines a *schedule* ``S`` in ``Πn`` as a finite or
infinite sequence of process ids.  A *step* is one element of the sequence; a
process is *correct* in an infinite schedule if it appears infinitely often and
*faulty* (it *crashes*) otherwise.

This module provides:

* :class:`Schedule` — an immutable finite schedule (or finite prefix of an
  infinite one) with the operations the rest of the library needs: occurrence
  counting, windows, concatenation, prefixes, and participant queries.
* :class:`ScheduleBuilder` — a mutable builder for composing schedules
  incrementally.
* :class:`InfiniteSchedule` — the interface implemented by the generators in
  :mod:`repro.schedules`, which produce unbounded step streams together with a
  *fault hint* describing which processes stop taking steps (so that the
  paper's "correct/faulty" notions are decidable for generated schedules even
  though we only ever materialize finite prefixes).
* :class:`CompiledSchedule` — a schedule prefix compiled once into a flat
  ``array('i')`` step buffer plus crash-pattern metadata.  Replica sweeps
  (campaigns, benchmarks) drive many simulators over the same scenario; the
  compiled form lets them stop re-running the Python generator chain per step
  and iterate a dense C-level buffer instead.
* :func:`pack_steps` — a step buffer as one byte per step, for the bytes
  scans of set timeliness.
* :func:`tally_steps` — the one whole-buffer pass: it checks that every step
  lies in ``Πn`` and counts the steps of each process with C-level bytes
  scans (one ``count`` per process over the packed low bytes), so validating
  a 60 000-step buffer costs no per-element Python work.

A finite prefix can never witness that a process is faulty (the process might
simply be slow), so :class:`Schedule` carries an optional ``faulty_hint``: the
set of processes that the *producer* of the schedule guarantees take no step
after the prefix.  All liveness-style analyses in the library treat the hint as
ground truth and say so in their docstrings.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..errors import ScheduleError
from ..types import ProcessId, ProcessSet, StepSequence, process_set, universe


#: Multi-byte integer array typecodes, whose raw bytes :func:`tally_steps` can
#: scan: a value in ``0..255`` fills an element's low byte and leaves the
#: other bytes zero, and any other value sets one of them.
_SCANNABLE_TYPECODES = frozenset("hHiIlLqQ")

#: Elements per raw-bytes copy when packing an array: long buffers are packed
#: and counted chunk by chunk, so the transient copies stay small (8 KB for
#: ``array('i')``) and a scan adds nothing to a process's peak memory.
_PACK_CHUNK = 2048


def _packed_chunks(steps: Sequence[ProcessId]) -> Iterator[Optional[bytes]]:
    """``steps`` packed one byte per step, chunk by chunk.

    An integer array gives its elements' low bytes with one stride slice of
    the raw bytes of each chunk; the packing is exact when every other byte
    is zero, which one ``count(0)`` per chunk checks.  A tuple or list is
    packed whole with ``bytes()``, which rejects values outside ``0..255``
    itself.  Other sequences (whose ``bytes()`` may be a raw buffer) are
    never packed.  A chunk that does not pack exactly comes out as ``None``.
    """
    if isinstance(steps, array) and steps.typecode in _SCANNABLE_TYPECODES:
        width = steps.itemsize
        low_lane = 0 if sys.byteorder == "little" else width - 1
        with memoryview(steps) as view:
            for start in range(0, len(steps), _PACK_CHUNK):
                raw = view[start : start + _PACK_CHUNK].tobytes()
                low = raw[low_lane::width]
                exact = raw.count(0) == (width - 1) * len(low) + low.count(0)
                yield low if exact else None
    elif isinstance(steps, (tuple, list)):
        try:
            yield bytes(steps)
        except (TypeError, ValueError):
            yield None
    else:
        yield None


def pack_steps(steps: Sequence[ProcessId]) -> Optional[bytes]:
    """``steps`` as one byte per step, or ``None`` when some step is outside ``0..255``.

    The packed form the bytes scans of set timeliness read
    (:func:`~repro.core.timeliness.best_timeliness_steps`): an integer
    array packs straight from its raw buffer, chunk by chunk, so callers
    holding a step buffer never materialize a :class:`Schedule`, and bytes
    come back as they are, so a caller scanning one buffer many times packs
    it once.

    >>> pack_steps(array("i", [1, 2, 3]))
    b'\\x01\\x02\\x03'
    >>> pack_steps([1, 300]) is None
    True
    """
    if isinstance(steps, bytes):
        return steps
    chunks = list(_packed_chunks(steps))
    return None if None in chunks else b"".join(chunks)


def tally_steps(steps: Sequence[ProcessId], n: int) -> Optional[Dict[ProcessId, int]]:
    """Steps per process of ``Πn`` when every step lies in ``1..n``, else ``None``.

    The one whole-buffer pass behind schedule validation and bulk step
    accounting.  For ``n <= 255`` the buffer is packed one byte per step
    (``tobytes`` and a stride slice per chunk of an integer array, ``bytes()``
    for tuples and lists) and each process's steps are one C-level ``count``
    per chunk; a step outside ``1..n`` shows as counts that do not add up to
    the buffer's length.  Wider systems, and buffers that do not pack, take
    the plain-Python ``Counter`` pass.  Either way the result maps every
    process of ``Πn`` (zero included) to its number of steps.

    >>> tally_steps(array("i", [1, 2, 2, 3]), 3)
    {1: 1, 2: 2, 3: 1}
    >>> tally_steps((1, 4), 3) is None
    True
    """
    pids = range(1, n + 1)
    if n <= 255:
        counts = dict.fromkeys(pids, 0)
        packed_length = 0
        for packed in _packed_chunks(steps):
            if packed is None:
                break
            for pid in pids:
                counts[pid] += packed.count(pid)
            packed_length += len(packed)
        else:
            return counts if sum(counts.values()) == packed_length else None
    counts = dict.fromkeys(pids, 0)
    for pid, count in Counter(steps).items():
        if not 1 <= pid <= n:
            return None
        counts[pid] = count
    return counts


def first_step_outside(steps: Iterable[ProcessId], n: int) -> Optional[Tuple[int, ProcessId]]:
    """``(index, pid)`` of the first step outside ``1..n``, or ``None``.

    The per-element error path of :func:`tally_steps`: callers run it only
    once the tally has failed, to name the offending step.
    """
    return next(
        ((index, pid) for index, pid in enumerate(steps) if not 1 <= pid <= n), None
    )


@dataclass(frozen=True)
class Schedule:
    """An immutable finite schedule over ``Πn``.

    Parameters
    ----------
    steps:
        The sequence of process ids, in execution order.
    n:
        The number of processes in the system.  Every step must lie in
        ``{1..n}``.
    faulty_hint:
        Processes guaranteed (by whoever produced this schedule) to take no
        step after this prefix.  ``None`` means "no information".  The hint is
        advisory metadata: it never affects the steps themselves, only
        analyses that need the paper's notion of correct/faulty processes.
    """

    steps: StepSequence
    n: int
    faulty_hint: Optional[ProcessSet] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ScheduleError(f"schedule needs n >= 1 processes, got n={self.n}")
        steps = tuple(map(int, self.steps))
        object.__setattr__(self, "steps", steps)
        if steps and tally_steps(steps, self.n) is None:
            index, p = first_step_outside(steps, self.n)
            raise ScheduleError(
                f"step {index} schedules process {p}, outside Πn = {{1..{self.n}}}"
            )
        if self.faulty_hint is not None:
            hint = process_set(self.faulty_hint)
            for p in hint:
                if not 1 <= p <= self.n:
                    raise ScheduleError(
                        f"faulty_hint contains {p}, outside Πn = {{1..{self.n}}}"
                    )
            object.__setattr__(self, "faulty_hint", hint)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty(n: int) -> "Schedule":
        """The empty schedule over ``Πn``."""
        return Schedule(steps=(), n=n)

    @staticmethod
    def from_rounds(rounds: Iterable[Sequence[ProcessId]], n: int) -> "Schedule":
        """Build a schedule by concatenating *rounds* (each a step sequence)."""
        flat: List[ProcessId] = []
        for r in rounds:
            flat.extend(r)
        return Schedule(steps=tuple(flat), n=n)

    @staticmethod
    def round_robin(n: int, rounds: int, order: Optional[Sequence[ProcessId]] = None) -> "Schedule":
        """A fully synchronous schedule: ``rounds`` repetitions of ``1..n``.

        ``order`` overrides the per-round order (it must be a permutation of a
        subset of ``Πn``; processes omitted from ``order`` never take a step).
        """
        per_round = tuple(order) if order is not None else tuple(range(1, n + 1))
        return Schedule(steps=per_round * rounds, n=n)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self.steps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Schedule(steps=self.steps[index], n=self.n, faulty_hint=self.faulty_hint)
        return self.steps[index]

    def __add__(self, other: "Schedule") -> "Schedule":
        return self.concat(other)

    def __bool__(self) -> bool:
        return bool(self.steps)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def concat(self, other: "Schedule") -> "Schedule":
        """Concatenation ``S · S'`` (the paper's notation for composition).

        The faulty hint of the result is the *other* schedule's hint: only the
        suffix can promise anything about which processes stop.
        """
        if other.n != self.n:
            raise ScheduleError(
                f"cannot concatenate schedules over different universes ({self.n} vs {other.n})"
            )
        return Schedule(steps=self.steps + other.steps, n=self.n, faulty_hint=other.faulty_hint)

    def prefix(self, length: int) -> "Schedule":
        """The prefix consisting of the first ``length`` steps."""
        if length < 0:
            raise ScheduleError(f"prefix length must be non-negative, got {length}")
        return Schedule(steps=self.steps[:length], n=self.n, faulty_hint=None)

    def suffix(self, start: int) -> "Schedule":
        """The suffix starting at step index ``start``."""
        if start < 0:
            raise ScheduleError(f"suffix start must be non-negative, got {start}")
        return Schedule(steps=self.steps[start:], n=self.n, faulty_hint=self.faulty_hint)

    def repeat(self, times: int) -> "Schedule":
        """The schedule repeated ``times`` times (``times >= 0``)."""
        if times < 0:
            raise ScheduleError(f"repeat count must be non-negative, got {times}")
        return Schedule(steps=self.steps * times, n=self.n, faulty_hint=self.faulty_hint)

    def with_faulty_hint(self, faulty: Iterable[ProcessId]) -> "Schedule":
        """Return a copy annotated with the given faulty-process hint."""
        return Schedule(steps=self.steps, n=self.n, faulty_hint=process_set(faulty))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def universe(self) -> ProcessSet:
        """``Πn`` — all process ids of the system this schedule lives in."""
        return universe(self.n)

    def participants(self) -> ProcessSet:
        """The set of processes that take at least one step."""
        return frozenset(self.steps)

    def silent_processes(self) -> ProcessSet:
        """Processes of ``Πn`` that take no step at all in this schedule."""
        return self.universe - self.participants()

    def count(self, p: ProcessId) -> int:
        """Number of occurrences of process ``p``."""
        return self.steps.count(p)

    def counts(self) -> Dict[ProcessId, int]:
        """Occurrence counts for every process of ``Πn`` (zero included)."""
        return tally_steps(self.steps, self.n)

    def count_set(self, processes: Iterable[ProcessId]) -> int:
        """Total number of steps taken by processes in the given set."""
        wanted = process_set(processes)
        return sum(1 for step in self.steps if step in wanted)

    def occurrences(self, processes: Iterable[ProcessId]) -> List[int]:
        """Indices of the steps taken by processes in the given set."""
        wanted = process_set(processes)
        return [index for index, step in enumerate(self.steps) if step in wanted]

    def last_occurrence(self, p: ProcessId) -> Optional[int]:
        """Index of the last step of ``p``, or ``None`` if ``p`` never steps."""
        for index in range(len(self.steps) - 1, -1, -1):
            if self.steps[index] == p:
                return index
        return None

    def declared_correct(self) -> Optional[ProcessSet]:
        """Processes declared correct by the faulty hint (``None`` if no hint)."""
        if self.faulty_hint is None:
            return None
        return self.universe - self.faulty_hint

    def restricted_to(self, processes: Iterable[ProcessId]) -> "Schedule":
        """The subsequence of steps taken by the given processes.

        Useful for reasoning about a *virtual process*: the paper's set
        timeliness treats a set ``P`` as a single process that steps whenever
        any member of ``P`` steps.
        """
        wanted = process_set(processes)
        return Schedule(
            steps=tuple(step for step in self.steps if step in wanted),
            n=self.n,
            faulty_hint=self.faulty_hint,
        )

    def windows(self, size: int) -> Iterator[StepSequence]:
        """Iterate over all contiguous windows of ``size`` steps."""
        if size < 1:
            raise ScheduleError(f"window size must be >= 1, got {size}")
        for start in range(0, max(0, len(self.steps) - size + 1)):
            yield self.steps[start : start + size]

    def describe(self, max_steps: int = 40) -> str:
        """Compact human-readable rendering, eliding long schedules."""
        if len(self.steps) <= max_steps:
            body = "·".join(str(p) for p in self.steps)
        else:
            head = "·".join(str(p) for p in self.steps[: max_steps // 2])
            tail = "·".join(str(p) for p in self.steps[-max_steps // 2 :])
            body = f"{head}···{tail}"
        return f"<Schedule n={self.n} len={len(self.steps)} [{body}]>"

    def __repr__(self) -> str:  # pragma: no cover - repr is cosmetic
        return self.describe()


class ScheduleBuilder:
    """Mutable builder that accumulates steps and produces a :class:`Schedule`.

    The builder validates process ids eagerly so that mistakes surface at the
    point of the erroneous ``append`` rather than when the schedule is sealed.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ScheduleError(f"schedule builder needs n >= 1, got n={n}")
        self._n = n
        self._steps: List[ProcessId] = []
        self._faulty_hint: Optional[ProcessSet] = None

    @property
    def n(self) -> int:
        """The number of processes of the schedule being built (``Πn``)."""
        return self._n

    def __len__(self) -> int:
        return len(self._steps)

    def append(self, p: ProcessId) -> "ScheduleBuilder":
        """Append one step of process ``p``."""
        if not 1 <= p <= self._n:
            raise ScheduleError(f"cannot schedule process {p} in Πn = {{1..{self._n}}}")
        self._steps.append(int(p))
        return self

    def extend(self, processes: Iterable[ProcessId]) -> "ScheduleBuilder":
        """Append one step for each process id in order."""
        for p in processes:
            self.append(p)
        return self

    def append_round(self, processes: Iterable[ProcessId]) -> "ScheduleBuilder":
        """Append one step per process, in the iteration order given."""
        return self.extend(processes)

    def repeat_block(self, processes: Sequence[ProcessId], times: int) -> "ScheduleBuilder":
        """Append ``times`` copies of the given block of steps."""
        if times < 0:
            raise ScheduleError(f"repeat count must be non-negative, got {times}")
        for _ in range(times):
            self.extend(processes)
        return self

    def declare_faulty(self, processes: Iterable[ProcessId]) -> "ScheduleBuilder":
        """Record that the given processes take no step after this schedule."""
        self._faulty_hint = process_set(processes)
        return self

    def build(self) -> Schedule:
        """Seal the builder into an immutable :class:`Schedule`."""
        return Schedule(steps=tuple(self._steps), n=self._n, faulty_hint=self._faulty_hint)


@dataclass
class InfiniteSchedule:
    """A lazily generated unbounded schedule.

    Generators in :mod:`repro.schedules` subclass or instantiate this with a
    ``step_fn`` mapping a step index (0-based) to a process id.  The object is
    deliberately simple: the only operations the library needs from an
    unbounded schedule are taking finite prefixes and knowing which processes
    the generator promises will eventually stop (``faulty``).

    Attributes
    ----------
    n:
        Number of processes.
    step_fn:
        Function from step index to process id.
    faulty:
        Processes that take only finitely many steps in the full infinite
        schedule (the generator's ground truth, used as the ``faulty_hint`` of
        every prefix long enough to contain their last step).
    description:
        Human-readable provenance, surfaced in reports.
    """

    n: int
    step_fn: Callable[[int], ProcessId]
    faulty: ProcessSet = field(default_factory=frozenset)
    description: str = "infinite schedule"

    def prefix(self, length: int) -> Schedule:
        """Materialize the first ``length`` steps as a finite :class:`Schedule`."""
        if length < 0:
            raise ScheduleError(f"prefix length must be non-negative, got {length}")
        steps = tuple(self.step_fn(index) for index in range(length))
        return Schedule(steps=steps, n=self.n, faulty_hint=self.faulty)

    def iter_steps(self) -> Iterator[ProcessId]:
        """Iterate over steps indefinitely (callers must bound consumption)."""
        index = 0
        while True:
            yield self.step_fn(index)
            index += 1

    def correct(self) -> ProcessSet:
        """Processes that are correct in the full infinite schedule."""
        return universe(self.n) - self.faulty


@dataclass(frozen=True)
class CompiledSchedule:
    """A schedule prefix compiled into a flat step buffer, plus crash metadata.

    Compilation happens once per scenario (``ScheduleGenerator.compile``):
    the generator chain is run to materialize its first ``len(steps)`` steps
    into an ``array('i')``, after which any number of replicas can iterate the
    raw buffer at C speed.  The execution kernel recognizes this type directly
    (:func:`repro.runtime.kernel.normalize_source`), and a run over the whole
    buffer iterates the array itself in the kernel's bare loop, crediting
    per-process step counts from :meth:`step_counts`.

    ``crash_steps`` carries the producing generator's crash pattern as a plain
    ``pid -> step`` mapping (the step index from which the process takes no
    further step), so :meth:`prefix` can attach the same ``faulty_hint`` that
    :meth:`~repro.schedules.base.ScheduleGenerator.generate` would have.

    The buffer is validated once at construction (every step inside ``Πn``),
    which is what lets hot loops consume it unchecked.  Validation is
    :func:`tally_steps`, so the same pass leaves the per-process step counts
    behind for :meth:`step_counts`.
    """

    n: int
    steps: array
    crash_steps: Mapping[ProcessId, int] = field(default_factory=dict)
    description: str = "compiled schedule"
    _step_counts: Optional[Dict[ProcessId, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ScheduleError(f"compiled schedule needs n >= 1, got n={self.n}")
        steps = self.steps
        if not isinstance(steps, array) or steps.typecode != "i":
            steps = array("i", steps)
            object.__setattr__(self, "steps", steps)
        counts = tally_steps(steps, self.n)
        if counts is None:
            bad = min(steps) if min(steps) < 1 else max(steps)
            raise ScheduleError(
                f"compiled schedule contains process {bad}, outside Πn = {{1..{self.n}}}"
            )
        object.__setattr__(self, "_step_counts", counts)
        normalized: Dict[ProcessId, int] = {}
        for pid, step in dict(self.crash_steps).items():
            if not 1 <= int(pid) <= self.n:
                raise ScheduleError(f"crash metadata mentions unknown process {pid}")
            if int(step) < 0:
                raise ScheduleError(
                    f"crash step for process {pid} must be >= 0, got {step}"
                )
            normalized[int(pid)] = int(step)
        object.__setattr__(self, "crash_steps", normalized)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self.steps)

    @property
    def faulty(self) -> ProcessSet:
        """Processes faulty in the compiled scenario's infinite schedule."""
        return frozenset(self.crash_steps)

    def crashed_by(self, length: int) -> ProcessSet:
        """Processes that have already crashed within the first ``length`` steps."""
        return frozenset(pid for pid, step in self.crash_steps.items() if step <= length)

    def step_counts(self) -> Dict[ProcessId, int]:
        """Occurrence counts over the whole buffer, for every process of ``Πn``.

        Tallied once, by the validation pass at construction: the hot loops
        use these to credit ``steps_taken`` in bulk instead of counting per
        step, which is valid precisely because a full-buffer run executes
        every buffered step.
        """
        return self._step_counts

    def prefix(self, length: Optional[int] = None) -> Schedule:
        """Materialize (a prefix of) the buffer as a rich :class:`Schedule`.

        The prefix carries the same faulty hint a generator's ``generate``
        would attach: the processes that have crashed by the end of the prefix.

        A ``length`` beyond the buffer is an error rather than a silent
        truncation: the faulty hint is computed for the *requested* length, so
        pairing it with a shorter step tuple would mislabel processes that
        crash between the buffer's end and ``length`` as already faulty.
        """
        if length is None:
            length = len(self.steps)
        if length < 0:
            raise ScheduleError(f"prefix length must be non-negative, got {length}")
        if length > len(self.steps):
            raise ScheduleError(
                f"prefix length {length} exceeds the compiled buffer "
                f"({len(self.steps)} steps)"
            )
        return Schedule(
            steps=tuple(self.steps[:length]),
            n=self.n,
            faulty_hint=self.crashed_by(length) or None,
        )

    def describe(self) -> str:
        """Compact rendering: universe size, buffer length and provenance."""
        return f"<CompiledSchedule n={self.n} len={len(self.steps)} [{self.description}]>"

    def __repr__(self) -> str:  # pragma: no cover - repr is cosmetic
        return self.describe()


def interleave(schedules: Sequence[Schedule]) -> Schedule:
    """Fair round-robin interleaving of finite schedules over the same ``Πn``.

    Step ``r`` of the result takes the ``r``-th remaining step of each input in
    rotation; inputs that run out simply drop out of the rotation.  This is a
    convenience used by adversary constructions and tests.
    """
    if not schedules:
        raise ScheduleError("interleave needs at least one schedule")
    n = schedules[0].n
    for s in schedules:
        if s.n != n:
            raise ScheduleError("cannot interleave schedules over different universes")
    iterators = [iter(s.steps) for s in schedules]
    steps: List[ProcessId] = []
    active = list(range(len(iterators)))
    while active:
        still_active = []
        for index in active:
            try:
                steps.append(next(iterators[index]))
                still_active.append(index)
            except StopIteration:
                continue
        active = still_active
    return Schedule(steps=tuple(steps), n=n)
