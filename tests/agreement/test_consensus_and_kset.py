"""Tests for leader-gated consensus, the k-set protocol, the trivial algorithm, and the runner."""

import random

import pytest

from repro.agreement.consensus import LeaderGatedConsensus
from repro.agreement.kset import DECISION
from repro.agreement.problem import distinct_inputs
from repro.agreement.runner import solve_agreement
from repro.agreement.trivial import TrivialKSetAgreementAutomaton
from repro.core.schedule import Schedule
from repro.errors import ConfigurationError
from repro.runtime.automaton import FunctionAutomaton
from repro.runtime.crash import CrashPattern
from repro.runtime.simulator import Simulator
from repro.schedules.random_schedule import RandomGenerator
from repro.schedules.set_timely import SetTimelyGenerator
from repro.types import AgreementInstance


def run_consensus(n, proposals, schedule_steps, leader):
    """Run one leader-gated consensus instance with a fixed leader."""
    consensus = LeaderGatedConsensus(name="cons", n=n)
    decisions = {}

    def factory(pid):
        def program(automaton, ctx):
            decision = yield from consensus.propose(automaton.pid, proposals[automaton.pid], lambda: leader)
            decisions[automaton.pid] = decision
            automaton.publish("decision", decision)
        return program

    automata = {pid: FunctionAutomaton(pid=pid, n=n, function=factory(pid)) for pid in range(1, n + 1)}
    simulator = Simulator(n=n, automata=automata)
    simulator.run(Schedule(steps=tuple(schedule_steps), n=n))
    return decisions


class TestLeaderGatedConsensus:
    def test_stable_leader_decides_and_everyone_adopts(self):
        decisions = run_consensus(3, {1: "a", 2: "b", 3: "c"}, [1, 2, 3] * 100, leader=2)
        assert decisions == {1: "b", 2: "b", 3: "b"}

    def test_validity(self):
        decisions = run_consensus(3, {1: "a", 2: "b", 3: "c"}, [3, 2, 1] * 100, leader=1)
        assert set(decisions.values()) == {"a"}

    def test_agreement_under_random_schedules_with_changing_leaders(self):
        """Safety must hold even when every process believes it is the leader."""
        for seed in range(8):
            rng = random.Random(seed)
            consensus = LeaderGatedConsensus(name=("chaos", seed), n=3)
            decisions = {}

            def factory(pid):
                def program(automaton, ctx):
                    decision = yield from consensus.propose(
                        automaton.pid, f"v{automaton.pid}", lambda: automaton.pid
                    )
                    decisions[automaton.pid] = decision
                return program

            automata = {pid: FunctionAutomaton(pid=pid, n=3, function=factory(pid)) for pid in (1, 2, 3)}
            simulator = Simulator(n=3, automata=automata)
            steps = tuple(rng.randint(1, 3) for _ in range(6000))
            simulator.run(Schedule(steps=steps, n=3))
            assert len(set(decisions.values())) <= 1

    def test_non_leader_learns_from_decision_register(self):
        decisions = run_consensus(2, {1: "x", 2: "y"}, [1] * 60 + [2] * 30, leader=1)
        assert decisions[1] == "x"
        assert decisions[2] == "x"


class TestTrivialAlgorithm:
    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError):
            TrivialKSetAgreementAutomaton(pid=1, n=4, t=2, k=2, input_value=0)

    def test_decides_at_most_t_plus_one_values(self):
        problem = AgreementInstance(t=1, k=3, n=4)
        generator = RandomGenerator(4, seed=77)
        report = solve_agreement(problem, distinct_inputs(4), generator, max_steps=5_000)
        assert report.verdict.satisfied
        assert len(report.verdict.distinct_decisions) <= 2  # at most t+1 = 2 publishers

    def test_tolerates_publisher_crashes(self):
        problem = AgreementInstance(t=2, k=3, n=4)
        crash = CrashPattern.initial_crashes(4, {1, 2})
        generator = RandomGenerator(4, seed=78, crash_pattern=crash)
        report = solve_agreement(problem, distinct_inputs(4), generator, max_steps=10_000)
        assert report.verdict.satisfied
        assert report.decisions[3] == report.inputs[3] or report.decisions[3] in report.inputs.values()


class TestSolveAgreementEndToEnd:
    def test_detector_based_protocol_terminates_and_is_safe(self):
        problem = AgreementInstance(t=2, k=2, n=4)
        generator = SetTimelyGenerator(n=4, p_set={1, 2}, q_set={1, 2, 3}, bound=3, seed=7)
        report = solve_agreement(problem, distinct_inputs(4), generator, max_steps=400_000)
        assert report.verdict.satisfied
        assert report.all_correct_decided
        assert len(report.verdict.distinct_decisions) <= 2
        assert report.detector_verdict is not None and report.detector_verdict.satisfied
        assert report.max_decision_step() is not None

    def test_with_crashes_outside_p(self):
        problem = AgreementInstance(t=2, k=2, n=5)
        crash = CrashPattern.initial_crashes(5, {4, 5})
        generator = SetTimelyGenerator(
            n=5, p_set={1, 2}, q_set={1, 2, 3}, bound=3, seed=9, crash_pattern=crash
        )
        report = solve_agreement(problem, distinct_inputs(5), generator, max_steps=600_000)
        assert report.verdict.satisfied
        assert report.correct == frozenset({1, 2, 3})

    def test_safety_holds_on_arbitrary_schedules(self):
        """Even without the synchrony needed for termination, decisions stay safe."""
        problem = AgreementInstance(t=2, k=2, n=3)
        for seed in range(4):
            generator = RandomGenerator(3, seed=seed)
            report = solve_agreement(problem, distinct_inputs(3), generator, max_steps=30_000)
            assert report.verdict.safe
            assert len(report.verdict.distinct_decisions) <= 2

    def test_plain_schedule_requires_correct_set(self):
        problem = AgreementInstance(t=2, k=2, n=3)
        schedule = Schedule.round_robin(3, rounds=10)
        with pytest.raises(ConfigurationError):
            solve_agreement(problem, distinct_inputs(3), schedule, max_steps=100)
        report = solve_agreement(
            problem, distinct_inputs(3), schedule, max_steps=100, correct={1, 2, 3}
        )
        assert report.verdict.safe

    def test_missing_inputs_rejected(self):
        problem = AgreementInstance(t=2, k=2, n=3)
        generator = RandomGenerator(3, seed=1)
        with pytest.raises(ConfigurationError):
            solve_agreement(problem, {1: 0}, generator, max_steps=100)


class TestRewind:
    @pytest.mark.parametrize("t,k", [(2, 2), (1, 2)], ids=["detector-stack", "trivial"])
    def test_rewound_protocol_republishes_the_undecided_decision(self, t, k):
        from repro.agreement.runner import build_agreement_algorithm

        problem = AgreementInstance(t=t, k=k, n=4)
        registers, automata, _ = build_agreement_algorithm(problem, distinct_inputs(4))
        simulator = Simulator(n=4, automata=automata, registers=registers)
        layers = [
            automaton.component("agreement") if k <= t else automaton
            for automaton in automata.values()
        ]
        assert all(layer.outputs == {DECISION: None} for layer in layers)
        simulator.run_fast(Schedule(steps=tuple(range(1, 5)) * 400, n=4))
        decided = simulator.outputs(DECISION)
        assert None not in decided.values()
        simulator.rewind()
        assert all(layer.outputs == {DECISION: None} for layer in layers)
        simulator.run_fast(Schedule(steps=tuple(range(1, 5)) * 400, n=4))
        assert simulator.outputs(DECISION) == decided
