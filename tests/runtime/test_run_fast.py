"""Equivalence of `Simulator.run_fast` with `Simulator.run`, and budget validation."""

import pytest

from repro.failure_detectors.anti_omega import KAntiOmegaAutomaton, make_anti_omega_algorithm
from repro.failure_detectors.base import FD_OUTPUT, WINNER_SET
from repro.memory.registers import RegisterFile
from repro.runtime.automaton import FunctionAutomaton, ReadOp, WriteOp
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator, build_simulator
from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.schedules.set_timely import SetTimelyGenerator


def _detector_simulator(n, t, k):
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = make_anti_omega_algorithm(n=n, t=t, k=k)
    simulator = Simulator(n=n, automata=automata, registers=registers)
    trackers = (OutputTracker(key=FD_OUTPUT), OutputTracker(key=WINNER_SET))
    for tracker in trackers:
        simulator.add_observer(tracker)
    return simulator, trackers


class TestRunFastEquivalence:
    def test_identical_outputs_and_tracker_changes_on_detector_run(self):
        n, t, k, horizon = 4, 2, 2, 20_000
        generator = SetTimelyGenerator(n=n, p_set={1, 2}, q_set={1, 2, 3}, bound=3, seed=7)
        slow_sim, slow_trackers = _detector_simulator(n, t, k)
        slow = slow_sim.run(generator.infinite(), max_steps=horizon)
        fast_sim, fast_trackers = _detector_simulator(n, t, k)
        fast = fast_sim.run_fast(generator.stream(), max_steps=horizon)

        assert fast.steps_executed == slow.steps_executed == horizon
        assert fast.outputs == slow.outputs
        assert fast.halted_processes == slow.halted_processes
        # The version-gated sampling must record the *same* change sequences,
        # at the same global step indices.
        for slow_tracker, fast_tracker in zip(slow_trackers, fast_trackers):
            assert fast_tracker.changes == slow_tracker.changes

    def test_identical_register_operation_counts(self):
        n, t, k, horizon = 3, 2, 2, 5_000
        generator = SetTimelyGenerator(n=n, p_set={1}, q_set={1, 2, 3}, bound=3, seed=3)
        slow_sim, _ = _detector_simulator(n, t, k)
        slow_sim.run(generator.infinite(), max_steps=horizon)
        fast_sim, _ = _detector_simulator(n, t, k)
        fast_sim.run_fast(generator.stream(), max_steps=horizon)
        assert fast_sim.registers.total_reads() == slow_sim.registers.total_reads()
        assert fast_sim.registers.total_writes() == slow_sim.registers.total_writes()

    def test_records_no_trace_but_counts_exact(self):
        schedule = Schedule(steps=(1, 2, 1), n=2)

        def program(automaton, ctx):
            while True:
                yield WriteOp(("scratch", automaton.pid), 0)

        simulator = build_simulator(2, lambda pid: FunctionAutomaton(pid, 2, program))
        result = simulator.run_fast(schedule)
        assert result.steps_executed == 3
        assert result.executed_schedule.steps == () and simulator.trace().steps == ()
        assert simulator.steps_taken(1) == 2 and simulator.steps_taken(2) == 1

    def test_halting_program_equivalent(self):
        def program(automaton, ctx):
            value = yield ReadOp(("r", 1))
            automaton.publish("seen", value)
            return "done"

        schedule = Schedule(steps=(1, 1, 1, 2, 2), n=2)
        slow = build_simulator(2, lambda pid: FunctionAutomaton(pid, 2, program))
        fast = build_simulator(2, lambda pid: FunctionAutomaton(pid, 2, program))
        slow_result = slow.run(schedule)
        fast_result = fast.run_fast(schedule)
        assert fast_result.halted_processes == slow_result.halted_processes == [1, 2]
        assert fast_result.outputs == slow_result.outputs

    def test_strict_mode_raises_on_halted_process(self):
        def program(automaton, ctx):
            return "done"
            yield  # pragma: no cover

        simulator = build_simulator(
            1, lambda pid: FunctionAutomaton(pid, 1, program), strict=True
        )
        with pytest.raises(SimulationError):
            simulator.run_fast(Schedule(steps=(1, 1), n=1))

    def test_operation_subclasses_execute_on_fast_path(self):
        # validate_operation accepts ReadOp/WriteOp subclasses, so the fast
        # path's exact-type fast branch must fall back to executing them.
        class TaggedRead(ReadOp):
            pass

        def program(automaton, ctx):
            yield WriteOp(("r", 1), 42)
            value = yield TaggedRead(("r", 1))
            automaton.publish("seen", value)

        simulator = build_simulator(1, lambda pid: FunctionAutomaton(pid, 1, program))
        result = simulator.run_fast(Schedule(steps=(1, 1, 1), n=1))
        assert result.outputs[1]["seen"] == 42

    def test_unknown_pid_rejected(self):
        simulator = build_simulator(
            2, lambda pid: FunctionAutomaton(pid, 2, lambda a, c: iter(()))
        )
        with pytest.raises(SimulationError):
            simulator.run_fast([3], max_steps=1)

    @pytest.mark.parametrize("bad_pid", [2**40, -(2**40), 0])
    @pytest.mark.parametrize("budget", [None, 5])
    @pytest.mark.parametrize("run", ["run", "run_fast"])
    def test_unknown_pid_runs_the_valid_prefix_first(self, run, budget, bad_pid):
        # A pid too large for the bare loop's array('i') buffer is an unknown
        # pid like any other: both loops execute the valid prefix, then fail
        # at the offending step with exact accounting.
        def program(automaton, ctx):
            count = 0
            while True:
                count += 1
                automaton.publish("count", count)
                yield WriteOp(("r", automaton.pid), count)

        simulator = build_simulator(2, lambda pid: FunctionAutomaton(pid, 2, program))
        with pytest.raises(SimulationError, match=rf"^unknown process id {bad_pid}$"):
            getattr(simulator, run)(iter([1, 2, bad_pid, 1]), max_steps=budget)
        assert simulator.step_index == 2
        assert [simulator.steps_taken(pid) for pid in (1, 2)] == [1, 1]
        assert simulator.outputs("count") == {1: 1, 2: 1}


class TestStepBudgetValidation:
    def _simulator(self):
        def program(automaton, ctx):
            while True:
                yield WriteOp(("scratch", automaton.pid), 0)

        return build_simulator(1, lambda pid: FunctionAutomaton(pid, 1, program))

    @pytest.mark.parametrize("bad_budget", [0, -1, -100])
    def test_zero_or_negative_budget_rejected_for_finite_schedule(self, bad_budget):
        simulator = self._simulator()
        with pytest.raises(SimulationError, match="positive step budget"):
            simulator.run(Schedule(steps=(1, 1), n=1), max_steps=bad_budget)

    def test_zero_budget_rejected_on_fast_path_too(self):
        simulator = self._simulator()
        with pytest.raises(SimulationError, match="positive step budget"):
            simulator.run_fast(Schedule(steps=(1,), n=1), max_steps=0)

    def test_omitting_budget_still_runs_finite_schedule_to_its_end(self):
        simulator = self._simulator()
        result = simulator.run(Schedule(steps=(1, 1, 1), n=1))
        assert result.steps_executed == 3
