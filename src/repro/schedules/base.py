"""Base interfaces for schedule generators.

A *schedule generator* is the reproduction's stand-in for "an adversary picks
an infinite schedule from the system's schedule set": it deterministically
(given its seed) produces arbitrarily long finite prefixes of one well-defined
infinite schedule, and states up front

* which processes are faulty in that infinite schedule (the crash pattern),
* and, when applicable, the *synchrony guarantee* it enforces by construction
  — which set ``P`` is timely with respect to which set ``Q`` and with what
  bound.  This is how experiments obtain schedules that are certified members
  of a chosen ``S^i_{j,n}`` without having to sample and hope.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional

from ..core.schedule import CompiledSchedule, InfiniteSchedule, Schedule
from ..errors import ConfigurationError
from ..runtime.crash import CrashPattern
from ..types import ProcessId, ProcessSet


@dataclass(frozen=True)
class SynchronyGuarantee:
    """A structural guarantee a generator enforces on every prefix it emits.

    ``p_set`` is timely with respect to ``q_set`` with bound at most ``bound``
    in the full infinite schedule (and in every prefix).  ``system_i`` and
    ``system_j`` are the corresponding coordinates, so a guarantee certifies
    membership in ``S^{system_i}_{system_j, n}``.
    """

    p_set: ProcessSet
    q_set: ProcessSet
    bound: int

    @property
    def system_i(self) -> int:
        """``i`` of the certified system ``S^i_{j,n}``: the size of ``p_set``."""
        return len(self.p_set)

    @property
    def system_j(self) -> int:
        """``j`` of the certified system ``S^i_{j,n}``: the size of ``q_set``."""
        return len(self.q_set)

    def describe(self) -> str:
        """One line: ``{P} timely w.r.t. {Q} with bound b``."""
        p = "{" + ",".join(str(x) for x in sorted(self.p_set)) + "}"
        q = "{" + ",".join(str(x) for x in sorted(self.q_set)) + "}"
        return f"{p} timely w.r.t. {q} with bound {self.bound}"


class ScheduleGenerator(ABC):
    """Produces prefixes of one infinite schedule over ``Πn``.

    Subclasses implement :meth:`_emit`, an infinite iterator of process ids
    that respects the generator's crash pattern.  The base class materializes
    prefixes, attaches the appropriate faulty hint, and exposes the optional
    synchrony guarantee.
    """

    def __init__(self, n: int, crash_pattern: Optional[CrashPattern] = None) -> None:
        if n < 1:
            raise ConfigurationError(f"schedule generator needs n >= 1, got {n}")
        self.n = n
        self.crash_pattern = crash_pattern if crash_pattern is not None else CrashPattern.none(n)
        if self.crash_pattern.n != n:
            raise ConfigurationError(
                f"crash pattern over n={self.crash_pattern.n} does not match generator n={n}"
            )

    # ------------------------------------------------------------------
    @property
    def faulty(self) -> ProcessSet:
        """Processes faulty in the generated infinite schedule."""
        return self.crash_pattern.faulty

    @property
    def description(self) -> str:
        """Human-readable provenance for reports."""
        return self.__class__.__name__

    def guarantee(self) -> Optional[SynchronyGuarantee]:
        """The synchrony guarantee enforced by construction, if any."""
        return None

    # ------------------------------------------------------------------
    @abstractmethod
    def _emit(self) -> Iterator[ProcessId]:
        """Yield the infinite step sequence (respecting the crash pattern)."""

    def generate(self, length: int) -> Schedule:
        """Materialize the first ``length`` steps as a :class:`Schedule`.

        The prefix carries a faulty hint listing the processes that have
        already crashed by the end of the prefix (they take no later step).
        """
        if length < 0:
            raise ConfigurationError(f"prefix length must be non-negative, got {length}")
        steps: List[ProcessId] = []
        emitter = self._emit()
        for _ in range(length):
            steps.append(next(emitter))
        already_crashed = frozenset(
            pid for pid in self.faulty if self.crash_pattern.is_crashed(pid, length)
        )
        return Schedule(steps=tuple(steps), n=self.n, faulty_hint=already_crashed or None)

    def compile(self, length: int) -> CompiledSchedule:
        """Compile the first ``length`` steps into a flat replayable buffer.

        The result iterates at C speed (``array('i')``) and carries the
        generator's crash pattern and description, so replica sweeps can run
        the generator chain once per scenario instead of once per step.  For
        any fixed seed the buffer is byte-for-byte the step sequence
        :meth:`generate` and :meth:`stream` would have produced.
        """
        if length < 0:
            raise ConfigurationError(f"compile length must be non-negative, got {length}")
        return CompiledSchedule(
            n=self.n,
            steps=self._compile_steps(length),
            crash_steps=self.crash_pattern.crash_steps,
            description=self.description,
        )

    def _compile_steps(self, length: int) -> array:
        """The first ``length`` steps as ``array('i')``: :meth:`compile`'s buffer.

        A generator that can fill the buffer without a per-step iterator
        overrides this.  The steps go through a list first: ``array`` packs a
        list in one pass, but appends from an iterator one item at a time.
        """
        return array("i", list(islice(self._emit(), length)))

    def infinite(self) -> InfiniteSchedule:
        """Wrap the generator as an :class:`InfiniteSchedule` (memoized steps)."""
        cache: List[ProcessId] = []
        emitter = self._emit()

        def step_fn(index: int) -> ProcessId:
            while len(cache) <= index:
                cache.append(next(emitter))
            return cache[index]

        return InfiniteSchedule(
            n=self.n,
            step_fn=step_fn,
            faulty=self.faulty,
            description=self.description,
        )

    def stream(self) -> Iterator[ProcessId]:
        """The raw unbounded step iterator (callers must bound consumption)."""
        return self._emit()
