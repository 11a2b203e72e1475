"""Crash patterns: which processes stop taking steps, and when.

In the paper a crash is not an event but a property of the schedule: a process
is faulty in an infinite schedule iff it occurs only finitely often.  For
experiments we still want to *construct* schedules with prescribed failures,
so a :class:`CrashPattern` records, for each faulty process, the step index
from which it no longer appears.  Schedule generators consult the pattern when
emitting steps; analyses use it as the ground-truth faulty set.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..types import ProcessId, ProcessSet, process_set, universe


@dataclass(frozen=True)
class CrashPattern:
    """A prescription of failures for schedule generation.

    Attributes
    ----------
    n:
        Number of processes in the system.
    crash_steps:
        Mapping ``pid -> step index`` (0-based, in the global schedule) from
        which the process takes no further step.  A process absent from the
        mapping is correct.
    """

    n: int
    crash_steps: Mapping[ProcessId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"crash pattern needs n >= 1, got {self.n}")
        normalized: Dict[ProcessId, int] = {}
        for pid, step in dict(self.crash_steps).items():
            if not 1 <= pid <= self.n:
                raise ConfigurationError(f"crash pattern mentions unknown process {pid}")
            if step < 0:
                raise ConfigurationError(f"crash step for process {pid} must be >= 0, got {step}")
            normalized[int(pid)] = int(step)
        object.__setattr__(self, "crash_steps", normalized)

    # ------------------------------------------------------------------
    @staticmethod
    def none(n: int) -> "CrashPattern":
        """The failure-free pattern."""
        return CrashPattern(n=n, crash_steps={})

    @staticmethod
    def initial_crashes(n: int, faulty: Iterable[ProcessId]) -> "CrashPattern":
        """Processes that are crashed from the very start (take no step at all).

        This is the construction used by Theorem 27(2b): ``j - i`` fictitious
        processes that never take a step.
        """
        return CrashPattern(n=n, crash_steps={pid: 0 for pid in process_set(faulty)})

    @staticmethod
    def crashes_at(n: int, crash_steps: Mapping[ProcessId, int]) -> "CrashPattern":
        """Arbitrary crash times, one per faulty process."""
        return CrashPattern(n=n, crash_steps=dict(crash_steps))

    @staticmethod
    def from_params(n: int, params: Mapping[str, object]) -> "CrashPattern":
        """Build a pattern from JSON-normalized scenario/campaign parameters.

        ``crash_steps`` (a ``pid -> step`` mapping, string keys allowed as
        produced by JSON round-trips) wins over ``crashes`` (a list of
        initially crashed processes); with neither, the pattern is
        failure-free.
        """
        crash_steps = params.get("crash_steps")
        if crash_steps:
            return CrashPattern.crashes_at(
                n, {int(pid): int(step) for pid, step in dict(crash_steps).items()}
            )
        crashes = params.get("crashes") or []
        if crashes:
            return CrashPattern.initial_crashes(n, frozenset(int(pid) for pid in crashes))
        return CrashPattern.none(n)

    def merged_with(self, other: "CrashPattern") -> "CrashPattern":
        """The union of two failure prescriptions over the same ``Πn``.

        A process faulty in either pattern is faulty in the merge; a process
        faulty in both crashes at the *earlier* of its two crash steps.
        """
        if self.n != other.n:
            raise ConfigurationError(
                f"cannot merge crash patterns over n={self.n} and n={other.n}"
            )
        merged: Dict[ProcessId, int] = dict(self.crash_steps)
        for pid, step in other.crash_steps.items():
            merged[pid] = min(merged.get(pid, step), step)
        return CrashPattern(n=self.n, crash_steps=merged)

    # ------------------------------------------------------------------
    @property
    def faulty(self) -> ProcessSet:
        """The set of faulty processes."""
        return frozenset(self.crash_steps.keys())

    @property
    def correct(self) -> ProcessSet:
        """The set of correct processes."""
        return universe(self.n) - self.faulty

    @property
    def failure_count(self) -> int:
        """Number of faulty processes ``f``."""
        return len(self.crash_steps)

    def tolerates(self, t: int) -> bool:
        """Whether this pattern crashes at most ``t`` processes."""
        return self.failure_count <= t

    def is_crashed(self, pid: ProcessId, step_index: int) -> bool:
        """Whether ``pid`` has crashed by (global) step ``step_index``."""
        crash_at = self.crash_steps.get(pid)
        return crash_at is not None and step_index >= crash_at

    def alive_span(
        self, pids: Iterable[ProcessId], step_index: int
    ) -> Tuple[List[ProcessId], int]:
        """The members of ``pids`` alive at ``step_index``, and until when.

        Returns ``(alive, until)``: the members of ``pids`` not crashed at
        step ``step_index``, in their given order, and the earliest crash
        step among them (``sys.maxsize`` when none of them ever crashes).
        ``alive`` is the alive subset of ``pids`` at every step of
        ``[step_index, until)``, so a schedule generator can emit a whole
        segment of steps over it and consult the pattern again only at
        ``until``, instead of asking :meth:`is_crashed` once per step.

        >>> CrashPattern(n=4, crash_steps={2: 0, 3: 50}).alive_span((1, 2, 3, 4), 10)
        ([1, 3, 4], 50)
        """
        crash_steps = self.crash_steps
        never = sys.maxsize
        if not crash_steps:
            return list(pids), never
        alive = [pid for pid in pids if crash_steps.get(pid, never) > step_index]
        until = min([crash_steps.get(pid, never) for pid in alive], default=never)
        return alive, until

    @property
    def is_static(self) -> bool:
        """Whether aliveness is time-independent (every crash happens at step 0).

        Failure-free and initial-crash patterns are static, so hot loops may
        replace per-step :meth:`is_crashed` calls with membership tests against
        :attr:`faulty`.
        """
        return all(step == 0 for step in self.crash_steps.values())

    def alive_at(self, step_index: int) -> ProcessSet:
        """Processes still allowed to take step ``step_index``."""
        return frozenset(
            pid for pid in range(1, self.n + 1) if not self.is_crashed(pid, step_index)
        )

    def describe(self) -> str:
        """Readable summary, e.g. ``"crashes: 3@0, 5@120"`` or ``"failure-free"``."""
        if not self.crash_steps:
            return "failure-free"
        parts = [f"{pid}@{step}" for pid, step in sorted(self.crash_steps.items())]
        return "crashes: " + ", ".join(parts)
