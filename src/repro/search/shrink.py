"""Delta-debugging shrinker: minimize a failing schedule, keep it failing.

Given a candidate whose property evaluation fails (or whose fitness clears a
near-miss threshold — the predicate is the caller's), :func:`shrink_schedule`
searches for a *minimal reproducer*: the classic ddmin loop over contiguous
step blocks, followed by a crash-metadata pass.  The result is always a
prefix-consistent :class:`~repro.core.schedule.CompiledSchedule` — crash
indices are recomputed after every removal so the metadata never contradicts
the buffer — and the whole procedure is deterministic: no randomness, fixed
block orders, so the same input schedule and predicate always shrink to the
same reproducer (pinned by ``tests/search/test_shrink.py``).

The shrinker is evaluation-bounded rather than time-bounded
(``max_evaluations``): each predicate call replays the trial once — the
search's predicates judge it with the property's ``confirm`` (or, for
near-misses, ``screen``), one tracked run on the property's replica, rewound
between trials rather than rebuilt — so the budget is what keeps worst-case
shrinks from dominating a search run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

from ..core.schedule import CompiledSchedule
from ..errors import ConfigurationError

#: A predicate deciding whether a shrunk candidate still exhibits the finding.
ShrinkPredicate = Callable[[CompiledSchedule], bool]


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink: the minimal reproducer plus accounting."""

    schedule: CompiledSchedule
    original_length: int
    evaluations: int
    removed_steps: int
    removed_crashes: int

    @property
    def shrunk_length(self) -> int:
        """Length of the minimized step buffer."""
        return len(self.schedule)

    def summary(self) -> str:
        """One-line accounting for reports."""
        return (
            f"{self.original_length} -> {self.shrunk_length} steps "
            f"({self.removed_crashes} crash entr{'y' if self.removed_crashes == 1 else 'ies'} "
            f"dropped, {self.evaluations} evaluations)"
        )


def rebuild_candidate(
    n: int,
    steps: Sequence[int],
    faulty: Sequence[int],
    description: str,
) -> CompiledSchedule:
    """Assemble a prefix-consistent compiled schedule over a reduced buffer.

    The faulty *set* is preserved (the property's ground-truth correct set
    must not drift while shrinking), but each crash index is recomputed as
    "just after the process's last remaining step" — 0 when every step was
    removed — so the metadata invariant (no step of a crashed process at or
    after its crash index) holds by construction.  Each faulty process's
    last step is one ``index`` scan of the reversed buffer.
    """
    buffer = array("i", steps)
    reverse = buffer[::-1]
    crash_steps: Dict[int, int] = {}
    for pid in faulty:
        try:
            crash_steps[pid] = len(buffer) - reverse.index(pid)
        except ValueError:
            crash_steps[pid] = 0
    return CompiledSchedule(
        n=n, steps=buffer, crash_steps=crash_steps, description=description
    )


def shrink_schedule(
    compiled: CompiledSchedule,
    predicate: ShrinkPredicate,
    max_evaluations: int = 160,
    min_length: int = 1,
) -> ShrinkResult:
    """ddmin over step blocks, then drop crash entries, while ``predicate`` holds.

    The input schedule itself must satisfy the predicate (else
    :class:`~repro.errors.ConfigurationError` — shrinking a non-finding would
    silently "minimize" noise).  Block granularity starts at halves and
    doubles whenever no block of the current size can be removed, down to
    single steps; every accepted removal restarts at the current granularity
    on the shorter buffer.
    """
    if max_evaluations < 1:
        raise ConfigurationError(f"max_evaluations must be >= 1, got {max_evaluations}")
    evaluations = 0

    def holds(candidate: CompiledSchedule) -> bool:
        nonlocal evaluations
        evaluations += 1
        return bool(predicate(candidate))

    if not holds(compiled):
        raise ConfigurationError(
            "shrink_schedule needs a schedule that already exhibits the finding "
            "(the predicate rejected the unshrunk input)"
        )

    n = compiled.n
    faulty = tuple(sorted(compiled.faulty))
    description = f"shrunk[{compiled.description}]"
    steps = array("i", compiled.steps)

    granularity = 2
    while len(steps) > min_length and evaluations < max_evaluations:
        block = max(1, len(steps) // granularity)
        removed_some = False
        start = 0
        while start < len(steps) and evaluations < max_evaluations:
            if len(steps) - block < min_length and block > 1:
                break
            trial_steps = steps[:start] + steps[start + block :]
            if len(trial_steps) < min_length:
                start += block
                continue
            trial = rebuild_candidate(n, trial_steps, faulty, description)
            if holds(trial):
                steps = trial_steps
                removed_some = True
                # Keep the same start: the next block slid into this position.
            else:
                start += block
        if removed_some:
            continue
        if block == 1:
            break
        granularity *= 2

    removed_crashes = 0
    surviving_faulty = list(faulty)
    for pid in faulty:
        if evaluations >= max_evaluations:
            break
        reduced = [p for p in surviving_faulty if p != pid]
        trial = rebuild_candidate(n, steps, reduced, description)
        if holds(trial):
            surviving_faulty = reduced
            removed_crashes += 1

    final = rebuild_candidate(n, steps, surviving_faulty, description)
    return ShrinkResult(
        schedule=final,
        original_length=len(compiled),
        evaluations=evaluations,
        removed_steps=len(compiled) - len(steps),
        removed_crashes=removed_crashes,
    )
