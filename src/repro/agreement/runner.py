"""End-to-end harness: solve a (t, k, n)-agreement instance on a schedule.

This is the integration point the examples, tests and benchmarks use.  Given a
problem instance, initial values and a schedule source, it

1. picks the right protocol (the trivial algorithm for ``t < k``, otherwise
   the Figure 2 detector composed with the k-instance agreement layer),
2. declares the shared registers of the detector (the paper's explicit initial
   configuration),
3. runs the simulator with a stop condition of "every correct process has
   decided", and
4. returns a report containing the decisions, the specification verdict,
   per-process decision steps, and — for the detector-based protocol — the
   detector's stabilization behaviour on the very same run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Union

from ..core.schedule import Schedule
from ..errors import ConfigurationError
from ..failure_detectors.anti_omega import (
    AccusationStatistic,
    KAntiOmegaAutomaton,
    TimeoutPolicy,
    paper_accusation_statistic,
    paper_timeout_policy,
)
from ..failure_detectors.base import make_detector_trackers
from ..failure_detectors.properties import (
    AntiOmegaVerdict,
    LeaderSetVerdict,
    check_k_anti_omega,
    check_leader_set_convergence,
)
from ..memory.registers import RegisterFile
from ..runtime.composition import ComposedAutomaton
from ..runtime.observers import OutputTracker
from ..runtime.simulator import RunResult, Simulator
from ..scenarios.spec import ScenarioSpec, build_scenario
from ..schedules.base import ScheduleGenerator
from ..types import AgreementInstance, ProcessId, ProcessSet, process_set, universe
from .kset import DECISION, KSetFromAntiOmegaAutomaton
from .problem import AgreementVerdict, check_agreement
from .trivial import TrivialKSetAgreementAutomaton

#: What callers may pass as the schedule: a generator or declarative scenario
#: (preferred — they know their crash pattern) or a plain finite schedule plus
#: an explicit correct set.
ScheduleInput = Union[ScheduleGenerator, ScenarioSpec, Schedule]


@dataclass
class AgreementRunReport:
    """Everything an experiment needs to know about one agreement run."""

    problem: AgreementInstance
    protocol: str
    inputs: Dict[ProcessId, Any]
    decisions: Dict[ProcessId, Any]
    decision_steps: Dict[ProcessId, Optional[int]]
    verdict: AgreementVerdict
    steps_executed: int
    horizon: int
    correct: ProcessSet
    detector_verdict: Optional[AntiOmegaVerdict] = None
    leader_set_verdict: Optional[LeaderSetVerdict] = None

    @property
    def all_correct_decided(self) -> bool:
        """Whether every correct process decided within the executed steps."""
        return self.verdict.terminated

    def max_decision_step(self) -> Optional[int]:
        """Largest decision step among correct processes (None if any undecided)."""
        steps = [self.decision_steps.get(pid) for pid in sorted(self.correct)]
        if any(step is None for step in steps):
            return None
        return max(steps) if steps else None


def build_agreement_algorithm(
    problem: AgreementInstance,
    inputs: Dict[ProcessId, Any],
    accusation_statistic: AccusationStatistic = paper_accusation_statistic,
    timeout_policy: TimeoutPolicy = paper_timeout_policy,
) -> "tuple[RegisterFile, Dict[ProcessId, Any], str]":
    """Construct the protocol for one instance: ``(registers, automata, name)``.

    Picks the trivial algorithm for ``t < k`` and the Figure 2 detector
    composed with the k-instance agreement layer otherwise, declaring the
    detector's shared registers when used.  This is the construction step of
    :func:`solve_agreement`, exposed separately so harnesses that drive their
    own simulator (the adversarial schedule-search properties, benchmarks)
    build byte-identical protocol stacks.
    """
    n = problem.n
    registers = RegisterFile()
    use_detector = problem.k <= problem.t
    automata: Dict[ProcessId, Any] = {}
    if use_detector:
        KAntiOmegaAutomaton.declare_registers(registers, n=n, k=problem.k)
        for pid in range(1, n + 1):
            detector = KAntiOmegaAutomaton(
                pid=pid,
                n=n,
                t=problem.t,
                k=problem.k,
                accusation_statistic=accusation_statistic,
                timeout_policy=timeout_policy,
            )
            agreement = KSetFromAntiOmegaAutomaton(
                pid=pid,
                n=n,
                t=problem.t,
                k=problem.k,
                input_value=inputs[pid],
                detector=detector,
            )
            automata[pid] = ComposedAutomaton(
                pid=pid,
                n=n,
                components=[("detector", detector), ("agreement", agreement)],
            )
        protocol = "figure2-anti-omega + k leader-gated consensus instances"
    else:
        for pid in range(1, n + 1):
            automata[pid] = TrivialKSetAgreementAutomaton(
                pid=pid, n=n, t=problem.t, k=problem.k, input_value=inputs[pid]
            )
        protocol = "trivial t<k algorithm"
    return registers, automata, protocol


def solve_agreement(
    problem: AgreementInstance,
    inputs: Dict[ProcessId, Any],
    schedule: ScheduleInput,
    max_steps: int,
    correct: Optional[Iterable[ProcessId]] = None,
    accusation_statistic: AccusationStatistic = paper_accusation_statistic,
    timeout_policy: TimeoutPolicy = paper_timeout_policy,
    stop_when_decided: bool = True,
) -> AgreementRunReport:
    """Run one agreement instance end to end and check it against the spec.

    Parameters
    ----------
    problem:
        The (t, k, n) instance.
    inputs:
        Initial value per process (all ``n`` processes).
    schedule:
        A :class:`ScheduleGenerator` or declarative
        :class:`~repro.scenarios.spec.ScenarioSpec` (their crash pattern
        supplies the correct set) or a finite :class:`Schedule` (then
        ``correct`` must be given).
    max_steps:
        Step budget (the experiment's horizon).
    correct:
        Ground-truth correct processes; required for plain schedules, derived
        from the generator otherwise.
    accusation_statistic, timeout_policy:
        Ablation hooks forwarded to the detector (A1/A2 experiments).
    stop_when_decided:
        Stop as soon as every correct process decided (default); disable to
        measure post-decision behaviour.
    """
    n = problem.n
    if max_steps < 1:
        raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")
    missing = [pid for pid in range(1, n + 1) if pid not in inputs]
    if missing:
        raise ConfigurationError(f"missing initial values for processes {missing}")

    if isinstance(schedule, ScenarioSpec):
        schedule = build_scenario(schedule)
    if isinstance(schedule, ScheduleGenerator):
        correct_set = universe(n) - schedule.faulty
        if schedule.n != n:
            raise ConfigurationError(
                f"schedule generator over n={schedule.n} does not match problem n={n}"
            )
        source = schedule.infinite()
    else:
        if correct is None:
            raise ConfigurationError(
                "a plain schedule does not know its crash pattern; pass correct="
            )
        correct_set = process_set(correct)
        source = schedule

    use_detector = problem.k <= problem.t
    registers, automata, protocol = build_agreement_algorithm(
        problem,
        inputs,
        accusation_statistic=accusation_statistic,
        timeout_policy=timeout_policy,
    )

    simulator = Simulator(n=n, automata=automata, registers=registers)
    decision_tracker = OutputTracker(key=DECISION)
    simulator.add_observer(decision_tracker)
    fd_tracker: Optional[OutputTracker] = None
    winner_tracker: Optional[OutputTracker] = None
    if use_detector:
        fd_tracker, winner_tracker = make_detector_trackers()
        simulator.add_observer(fd_tracker)
        simulator.add_observer(winner_tracker)

    def decided(pid: ProcessId) -> bool:
        return simulator.output_of(pid, DECISION) is not None

    stop_condition = None
    if stop_when_decided:
        def stop_condition(step: int, sim: Simulator) -> bool:  # noqa: ANN001
            return all(decided(pid) for pid in correct_set)

    result: RunResult = simulator.run(source, max_steps=max_steps, stop_condition=stop_condition)

    decisions = {pid: simulator.output_of(pid, DECISION) for pid in range(1, n + 1)}
    decision_steps: Dict[ProcessId, Optional[int]] = {}
    for pid in range(1, n + 1):
        step = None
        for change in decision_tracker.history_of(pid):
            if change.value is not None:
                step = change.step
                break
        decision_steps[pid] = step

    verdict = check_agreement(
        problem=problem,
        inputs=inputs,
        decisions=decisions,
        correct=correct_set,
    )

    detector_verdict = None
    leader_set_verdict = None
    if use_detector and fd_tracker is not None and winner_tracker is not None:
        detector_verdict = check_k_anti_omega(
            fd_tracker=fd_tracker,
            winner_tracker=winner_tracker,
            correct=correct_set,
            n=n,
            k=problem.k,
            horizon=result.steps_executed,
        )
        leader_set_verdict = check_leader_set_convergence(
            winner_tracker=winner_tracker,
            correct=correct_set,
        )

    return AgreementRunReport(
        problem=problem,
        protocol=protocol,
        inputs=dict(inputs),
        decisions=decisions,
        decision_steps=decision_steps,
        verdict=verdict,
        steps_executed=result.steps_executed,
        horizon=max_steps,
        correct=correct_set,
        detector_verdict=detector_verdict,
        leader_set_verdict=leader_set_verdict,
    )
