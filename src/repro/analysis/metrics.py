"""Experiment-level metric collection: detector convergence and agreement cost.

These helpers wrap "build the automata, run the simulator, apply the property
verifiers" into single calls returning flat report objects, so benchmarks,
examples and tests all measure the same things the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..errors import ConfigurationError
from ..failure_detectors.anti_omega import (
    AccusationStatistic,
    KAntiOmegaAutomaton,
    TimeoutPolicy,
    make_anti_omega_algorithm,
    paper_accusation_statistic,
    paper_timeout_policy,
)
from ..failure_detectors.base import make_detector_trackers
from ..failure_detectors.properties import check_k_anti_omega, check_leader_set_convergence
from ..memory.registers import RegisterFile
from ..runtime.simulator import Simulator
from ..schedules.base import ScheduleGenerator
from ..types import ProcessSet, universe


@dataclass(frozen=True)
class DetectorConvergenceReport:
    """How the Figure 2 detector behaved over one run prefix.

    ``satisfied`` / ``stabilization_step`` / ``margin`` come from the
    k-anti-Ω verifier; ``winner_changes`` and ``last_winner_change`` summarize
    how much the winner set churned (a stabilizing run stops churning early, a
    non-stabilizing one churns all the way to the horizon);
    ``converged_winner_set`` is the common final winner set when all correct
    processes agree (Lemma 22), else ``None``.
    """

    n: int
    t: int
    k: int
    horizon: int
    correct: ProcessSet
    satisfied: bool
    stabilization_step: Optional[int]
    margin: Optional[float]
    winner_changes: int
    last_winner_change: Optional[int]
    converged_winner_set: Optional[tuple]
    winner_contains_correct: bool
    schedule_description: str

    @property
    def stabilized_early(self) -> bool:
        """Whether the detector stopped churning in the first half of the horizon.

        The threshold is deliberately coarse: stabilizing runs settle within a
        few percent of the horizon, non-stabilizing ones churn past 90%, so
        any mid-range cut-off separates them cleanly.
        """
        if self.last_winner_change is None:
            return False
        return self.last_winner_change < self.horizon // 2


def run_detector_experiment(
    generator: ScheduleGenerator,
    t: int,
    k: int,
    horizon: int,
    accusation_statistic: AccusationStatistic = paper_accusation_statistic,
    timeout_policy: TimeoutPolicy = paper_timeout_policy,
    fast: bool = False,
    schedule: Optional[Any] = None,
) -> DetectorConvergenceReport:
    """Run the Figure 2 algorithm alone on a generated schedule and measure it.

    With ``fast=True`` the run executes in the kernel's bare loop
    (:meth:`Simulator.run_fast`) fed by the generator's raw step stream
    (skipping the memoized :class:`InfiniteSchedule` wrapper).  The report is
    value-identical either way — the attached trackers declare the
    ``on_publish`` capability, so publication-gated sampling records the same
    change sequences — which is why the campaign engine uses ``fast=True``
    unconditionally.

    ``schedule`` optionally overrides the step source with a pre-materialized
    one — in practice a :class:`~repro.core.schedule.CompiledSchedule` of this
    very generator's stream, compiled once and shared across replicas by the
    campaign layer.  The caller owns the equivalence: the source must yield
    the same steps the generator would have emitted.  ``generator`` is still
    consulted for the ground-truth faulty set and the report's provenance.
    """
    n = generator.n
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = make_anti_omega_algorithm(
        n=n, t=t, k=k, accusation_statistic=accusation_statistic, timeout_policy=timeout_policy
    )
    simulator = Simulator(n=n, automata=automata, registers=registers)
    fd_tracker, winner_tracker = make_detector_trackers()
    simulator.add_observer(fd_tracker)
    simulator.add_observer(winner_tracker)
    if schedule is not None:
        simulator.run_fast(schedule, max_steps=horizon)
    elif fast:
        simulator.run_fast(generator.stream(), max_steps=horizon)
    else:
        simulator.run(generator.infinite(), max_steps=horizon)

    correct = universe(n) - generator.faulty
    verdict = check_k_anti_omega(
        fd_tracker=fd_tracker,
        winner_tracker=winner_tracker,
        correct=correct,
        n=n,
        k=k,
        horizon=horizon,
    )
    leader_verdict = check_leader_set_convergence(winner_tracker, correct=correct)
    correct_changes = [change for change in winner_tracker.changes if change.pid in correct]

    return DetectorConvergenceReport(
        n=n,
        t=t,
        k=k,
        horizon=horizon,
        correct=correct,
        satisfied=verdict.satisfied,
        stabilization_step=verdict.stabilization_step,
        margin=verdict.margin(),
        winner_changes=len(correct_changes),
        last_winner_change=max((change.step for change in correct_changes), default=None),
        converged_winner_set=leader_verdict.winner_set,
        winner_contains_correct=leader_verdict.contains_correct,
        schedule_description=generator.description,
    )
