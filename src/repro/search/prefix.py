"""Prefix-shared runs: step each shared schedule prefix once per batch.

Candidates of one search generation descend from a handful of base
scenarios, so many of them agree on a long first stretch of steps: a
mutation only changes the schedule from its first directive on.  A run's
state after a prefix depends on nothing but that prefix, so a candidate that
shares its first ``d`` steps with one already run can start from that run's
state at depth ``d`` (:meth:`~repro.runtime.simulator.Simulator.snapshot` /
:meth:`~repro.runtime.simulator.Simulator.restore`) and step only the rest.

:func:`plan_prefix_runs` orders a batch by step buffer, so candidates with
long common prefixes run back to back, and says for every candidate where it
resumes (its longest common prefix with the previous one) and where it
pauses to take a snapshot: only at the depths later candidates branch from
(the running minimum of the following prefixes), so each shared prefix is
stepped once.  :class:`PrefixRunner` executes that plan on one simulator
with a stack of snapshots along the current run.  Prefixes shorter than
:data:`MIN_SHARED_DEPTH` are not worth a snapshot and a restore: such a
candidate runs whole, exactly as it would alone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.schedule import CompiledSchedule
from ..errors import SimulationError
from ..runtime.simulator import Simulator, SimulatorSnapshot

#: Shortest shared prefix a run resumes from or pauses at.  A snapshot and a
#: restore of a Figure 2 replica cost about as much as a hundred early steps,
#: so shorter prefixes run again instead.
MIN_SHARED_DEPTH = 256


def shared_prefix(first: array, second: array) -> int:
    """Length of the longest common prefix of two step buffers.

    Bisects with C-level slice comparisons instead of walking the steps in
    Python, then finishes the last few steps one by one.
    """
    limit = min(len(first), len(second))
    if first[:limit] == second[:limit]:
        return limit
    low, high = 0, limit  # first[:low] == second[:low], first[:high] != second[:high]
    while high - low > 16:
        middle = (low + high) // 2
        if first[low:middle] == second[low:middle]:
            low = middle
        else:
            high = middle
    while first[low] == second[low]:
        low += 1
    return low


@dataclass(frozen=True)
class PrefixPlan:
    """The order a batch runs in and, per position, where it resumes and pauses.

    ``order[i]`` is the batch index of the ``i``-th run, ``resume[i]`` the
    depth it resumes from (0: the replica's start state) and ``pauses[i]``
    the increasing depths after which it takes a snapshot for later runs.
    """

    order: List[int]
    resume: List[int]
    pauses: List[List[int]]

    @staticmethod
    def whole(count: int) -> "PrefixPlan":
        """Every run whole, in batch order (no snapshot, no restore)."""
        return PrefixPlan(list(range(count)), [0] * count, [[] for _ in range(count)])


def plan_prefix_runs(buffers: Sequence[array]) -> PrefixPlan:
    """Plan a batch of step buffers so that each shared prefix is stepped once.

    The buffers are sorted (lexicographically, on the arrays themselves), so
    the longest common prefix of any two lies between every pair of
    neighbours in between them.  A run resumes from its prefix shared with
    the previous run, and pauses at each distinct running minimum of the
    following neighbours' shared prefixes that lies above its own resume
    depth: exactly the depths later runs resume from.  Shared prefixes below
    :data:`MIN_SHARED_DEPTH` count as none.
    """
    order = sorted(range(len(buffers)), key=buffers.__getitem__)
    shared = [0] + [
        shared_prefix(buffers[before], buffers[after])
        for before, after in zip(order, order[1:])
    ]
    resume = [depth if depth >= MIN_SHARED_DEPTH else 0 for depth in shared]
    pauses: List[List[int]] = []
    for position, own in enumerate(resume):
        depths: List[int] = []
        running = None
        for later in range(position + 1, len(order)):
            depth = shared[later]
            running = depth if running is None else min(running, depth)
            if running <= own or running < MIN_SHARED_DEPTH:
                break
            if not depths or running < depths[-1]:
                depths.append(running)
        pauses.append(depths[::-1])
    return PrefixPlan(order, resume, pauses)


class PrefixRunner:
    """Executes a :class:`PrefixPlan` on one simulator.

    Construction snapshots the simulator as it stands (observers attached):
    a run resuming from depth 0 restores that.  The runner keeps a stack of
    ``(depth, snapshot)`` along the current run; a run resuming from depth
    ``d`` drops the entries deeper than ``d``, restores the one at ``d`` and
    pushes its own pauses.  Trackers attached to the simulator therefore see
    every run as if it ran whole from the start.
    """

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._start = simulator.snapshot()
        self._stack: List[Tuple[int, SimulatorSnapshot]] = []

    def run(self, compiled: CompiledSchedule, resume: int = 0, pauses: Sequence[int] = ()) -> None:
        """Run ``compiled`` from the snapshot at depth ``resume``, pausing at ``pauses``.

        With ``resume`` 0 and no pauses the buffer runs whole, as one
        :meth:`~repro.runtime.simulator.Simulator.run_fast` of the compiled
        schedule.  Otherwise each segment between pauses is one
        ``run_fast`` of a slice of the step array.
        """
        simulator = self.simulator
        stack = self._stack
        while stack and stack[-1][0] > resume:
            stack.pop()
        at, snapshot = stack[-1] if stack else (0, self._start)
        if at != resume:
            raise SimulationError(
                f"no snapshot at depth {resume}: an earlier run of the plan "
                "should have paused there"
            )
        simulator.restore(snapshot)
        if not at and not pauses:
            simulator.run_fast(compiled)
            return
        steps = compiled.steps
        for pause in pauses:
            simulator.run_fast(steps[at:pause])
            stack.append((pause, simulator.snapshot()))
            at = pause
        if at < len(steps):
            simulator.run_fast(steps[at:])

