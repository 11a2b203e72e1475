"""Tests for the Figure 2 algorithm (t-resilient k-anti-Ω) and the Ω specialization."""

import pytest

from repro.errors import ConfigurationError
from repro.failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    k_subsets,
    make_anti_omega_algorithm,
    max_accusation_statistic,
    median_accusation_statistic,
    min_accusation_statistic,
    paper_accusation_statistic,
    paper_timeout_policy,
    doubling_timeout_policy,
    constant_timeout_policy,
)
from repro.failure_detectors.base import FD_OUTPUT, LEADER, WINNER_SET
from repro.failure_detectors.omega import OmegaAutomaton, make_omega_algorithm
from repro.failure_detectors.properties import check_k_anti_omega, check_leader_set_convergence
from repro.memory.registers import RegisterFile
from repro.runtime.crash import CrashPattern
from repro.runtime.observers import OutputChange, OutputTracker
from repro.runtime.simulator import Simulator
from repro.schedules.round_robin import RoundRobinGenerator
from repro.schedules.set_timely import SetTimelyGenerator


def run_detector(generator, t, k, horizon):
    """Shared helper: run the detector on a generated schedule and return trackers."""
    n = generator.n
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = make_anti_omega_algorithm(n=n, t=t, k=k)
    simulator = Simulator(n=n, automata=automata, registers=registers)
    fd_tracker = OutputTracker(key=FD_OUTPUT)
    winner_tracker = OutputTracker(key=WINNER_SET)
    simulator.add_observer(fd_tracker)
    simulator.add_observer(winner_tracker)
    simulator.run(generator.infinite(), max_steps=horizon)
    correct = frozenset(range(1, n + 1)) - generator.faulty
    return simulator, fd_tracker, winner_tracker, correct


class TestKSubsets:
    def test_enumeration_and_order(self):
        subsets = k_subsets(4, 2)
        assert len(subsets) == 6
        assert subsets[0] == (1, 2)
        assert subsets == sorted(subsets)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            k_subsets(3, 0)
        with pytest.raises(ConfigurationError):
            k_subsets(3, 4)


class TestStatisticsAndPolicies:
    def test_paper_statistic_is_t_plus_1_smallest(self):
        assert paper_accusation_statistic([5, 1, 3, 2], t=2) == 3
        assert paper_accusation_statistic([5, 1, 3, 2], t=0) == 1

    def test_alternative_statistics(self):
        values = [4, 0, 7, 2]
        assert min_accusation_statistic(values, 1) == 0
        assert max_accusation_statistic(values, 1) == 7
        assert median_accusation_statistic(values, 1) in (2, 4)

    def test_timeout_policies(self):
        assert paper_timeout_policy(3) == 4
        assert doubling_timeout_policy(3) == 6
        assert constant_timeout_policy(3) == 3


class TestParameterValidation:
    def test_bad_t_and_k_rejected(self):
        with pytest.raises(ConfigurationError):
            KAntiOmegaAutomaton(pid=1, n=3, t=3, k=1)
        with pytest.raises(ConfigurationError):
            KAntiOmegaAutomaton(pid=1, n=3, t=2, k=3)
        with pytest.raises(ConfigurationError):
            KAntiOmegaAutomaton(pid=1, n=3, t=0, k=1)

    def test_omega_is_k_equal_one(self):
        omega = OmegaAutomaton(pid=1, n=3, t=2)
        assert omega.k == 1
        with pytest.raises(ConfigurationError):
            OmegaAutomaton(pid=1, n=1, t=1)


class TestOutputShape:
    def test_output_is_complement_of_winnerset(self):
        generator = RoundRobinGenerator(3)
        simulator, fd_tracker, winner_tracker, correct = run_detector(generator, t=2, k=2, horizon=2000)
        for pid in range(1, 4):
            fd_output = simulator.output_of(pid, FD_OUTPUT)
            winnerset = simulator.output_of(pid, WINNER_SET)
            assert isinstance(fd_output, frozenset)
            assert len(fd_output) == 3 - 2
            assert fd_output == frozenset({1, 2, 3}) - frozenset(winnerset)

    def test_iteration_counter_increases(self):
        generator = RoundRobinGenerator(3)
        simulator, *_ = run_detector(generator, t=2, k=1, horizon=3000)
        assert simulator.output_of(1, "iteration") >= 2


class TestConvergence:
    def test_round_robin_failure_free(self):
        generator = RoundRobinGenerator(4)
        _, fd_tracker, winner_tracker, correct = run_detector(generator, t=3, k=2, horizon=20_000)
        verdict = check_k_anti_omega(fd_tracker, winner_tracker, correct, n=4, k=2, horizon=20_000)
        assert verdict.satisfied
        assert verdict.margin() is not None and verdict.margin() > 0.5
        leader = check_leader_set_convergence(winner_tracker, correct)
        assert leader.converged and leader.contains_correct

    def test_set_timely_schedule_with_crashes(self):
        crash = CrashPattern.initial_crashes(4, {4})
        generator = SetTimelyGenerator(
            n=4, p_set={2, 3}, q_set={1, 2, 3}, bound=3, seed=13, crash_pattern=crash
        )
        _, fd_tracker, winner_tracker, correct = run_detector(generator, t=2, k=2, horizon=60_000)
        verdict = check_k_anti_omega(fd_tracker, winner_tracker, correct, n=4, k=2, horizon=60_000)
        assert verdict.satisfied
        assert verdict.witness in correct
        leader = check_leader_set_convergence(winner_tracker, correct)
        assert leader.converged
        assert leader.contains_correct

    def test_crashed_lexicographic_minimum_is_abandoned(self):
        """If the lexicographically smallest k-set is entirely crashed, its
        accusation counters must grow and a set with a correct member must win."""
        crash = CrashPattern.initial_crashes(4, {1, 2})
        generator = SetTimelyGenerator(
            n=4, p_set={3, 4}, q_set={3, 4}, bound=3, seed=29, crash_pattern=crash
        )
        _, fd_tracker, winner_tracker, correct = run_detector(generator, t=2, k=2, horizon=120_000)
        leader = check_leader_set_convergence(winner_tracker, correct)
        assert leader.converged
        assert set(leader.winner_set) & {3, 4}
        verdict = check_k_anti_omega(fd_tracker, winner_tracker, correct, n=4, k=2, horizon=120_000)
        assert verdict.satisfied

    def test_omega_elects_stable_leader(self):
        generator = SetTimelyGenerator(n=3, p_set={2}, q_set={1, 2, 3}, bound=3, seed=31)
        n = generator.n
        registers = RegisterFile()
        KAntiOmegaAutomaton.declare_registers(registers, n=n, k=1)
        automata = make_omega_algorithm(n=n, t=2)
        simulator = Simulator(n=n, automata=automata, registers=registers)
        leader_tracker = OutputTracker(key=LEADER)
        simulator.add_observer(leader_tracker)
        simulator.run(generator.infinite(), max_steps=40_000)
        finals = leader_tracker.final_values()
        assert len(set(finals.values())) == 1
        assert list(finals.values())[0] in {1, 2, 3}


class TestStabilizationStep:
    @pytest.mark.xfail(
        strict=True,
        reason="known checker bug: a suspicion is taken to end at its last "
        "publication, not when the process publishes a set without the "
        "candidate; fixing it changes stabilization_step in detector "
        "campaign payloads, so it ships with re-recorded benchmark references",
    )
    def test_suspicion_lasts_until_replaced(self):
        """p1 suspects 2 from step 10 until it publishes {1,3} at step 50."""
        tracker = OutputTracker(key=FD_OUTPUT)
        tracker.changes.extend(
            [
                OutputChange(step=5, pid=2, value=frozenset({1, 3})),
                OutputChange(step=10, pid=1, value=frozenset({2, 4})),
                OutputChange(step=50, pid=1, value=frozenset({1, 3})),
            ]
        )
        verdict = check_k_anti_omega(tracker, None, {1, 2}, n=4, k=2, horizon=100)
        assert verdict.witness == 2
        assert verdict.stabilization_step == 50


class TestRegisterDeclaration:
    def test_declares_heartbeats_and_counters(self):
        registers = RegisterFile()
        KAntiOmegaAutomaton.declare_registers(registers, n=3, k=2)
        assert registers.peek(("Heartbeat", 1)) == 0
        assert registers.peek(("Counter", (1, 2), 3)) == 0
        # Single-writer ownership is enforced.
        from repro.errors import RegisterError

        with pytest.raises(RegisterError):
            registers.write(("Heartbeat", 1), 5, writer=2)
