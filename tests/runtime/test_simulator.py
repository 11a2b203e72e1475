"""Tests for the step-level simulator and the automaton protocol."""

import pytest

from repro.core.schedule import InfiniteSchedule, Schedule
from repro.errors import SimulationError
from repro.memory.registers import RegisterFile
from repro.runtime.automaton import (
    CollectOp,
    FunctionAutomaton,
    IdleAutomaton,
    ProcessAutomaton,
    ReadOp,
    WriteOp,
    validate_operation,
)
from repro.runtime.simulator import Simulator, build_simulator


class PingPong(ProcessAutomaton):
    """Writes its pid, reads the other's register, publishes what it saw."""

    def program(self, ctx):
        other = 1 if self.pid == 2 else 2
        yield WriteOp(("reg", self.pid), self.pid)
        seen = yield ReadOp(("reg", other))
        self.publish("seen", seen)
        return seen


class TestAutomatonProtocol:
    def test_validate_operation_accepts_ops(self):
        assert validate_operation(ReadOp("r")) == ReadOp("r")
        assert validate_operation(WriteOp("r", 1)) == WriteOp("r", 1)

    def test_validate_operation_rejects_other_values(self):
        with pytest.raises(SimulationError):
            validate_operation(42)

    def test_bad_pid_rejected(self):
        with pytest.raises(SimulationError):
            IdleAutomaton(pid=5, n=3)

    def test_function_automaton(self):
        def program(automaton, ctx):
            value = yield ReadOp("x")
            automaton.publish("got", value)

        automaton = FunctionAutomaton(pid=1, n=1, function=program)
        simulator = Simulator(n=1, automata={1: automaton})
        simulator.registers.write("x", 99)
        simulator.run(Schedule(steps=(1, 1), n=1))
        assert automaton.output("got") == 99


class TestSimulatorExecution:
    def test_one_operation_per_step(self):
        simulator = Simulator(n=2, automata={1: PingPong(1, 2), 2: PingPong(2, 2)})
        # Process 1 writes, process 2 writes, then both read each other.
        simulator.run(Schedule(steps=(1, 2, 1, 2, 1, 2), n=2))
        assert simulator.output_of(1, "seen") == 2
        assert simulator.output_of(2, "seen") == 1
        assert simulator.steps_taken(1) == 3
        assert simulator.halted(1) and simulator.halted(2)

    def test_interleaving_determines_reads(self):
        simulator = Simulator(n=2, automata={1: PingPong(1, 2), 2: PingPong(2, 2)})
        # Process 1 runs entirely before process 2 ever writes.
        simulator.run(Schedule(steps=(1, 1, 1, 2, 2, 2), n=2))
        assert simulator.output_of(1, "seen") is None
        assert simulator.output_of(2, "seen") == 1

    def test_halted_process_steps_are_noops_by_default(self):
        simulator = Simulator(n=1, automata={1: PingPong(1, 1)})
        result = simulator.run(Schedule(steps=(1,) * 10, n=1))
        assert result.steps_executed == 10
        assert simulator.halted(1)

    def test_strict_mode_rejects_scheduling_halted_process(self):
        simulator = Simulator(n=1, automata={1: PingPong(1, 1)}, strict=True)
        with pytest.raises(SimulationError):
            simulator.run(Schedule(steps=(1,) * 10, n=1))

    def test_missing_automaton_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(n=2, automata={1: IdleAutomaton(1, 2)})

    def test_unknown_process_in_schedule_rejected(self):
        simulator = Simulator(n=2, automata={1: IdleAutomaton(1, 2), 2: IdleAutomaton(2, 2)})
        with pytest.raises(SimulationError):
            simulator.run(Schedule(steps=(1, 2), n=3))

    def test_trace_matches_executed_schedule(self):
        simulator = build_simulator(3, lambda pid: IdleAutomaton(pid, 3))
        schedule = Schedule(steps=(3, 1, 2, 2), n=3)
        simulator.run(schedule)
        assert simulator.trace().steps == schedule.steps

    def test_stop_condition(self):
        simulator = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        result = simulator.run(
            Schedule(steps=(1, 2) * 50, n=2),
            stop_condition=lambda step, sim: step >= 7,
        )
        assert result.stopped_early
        assert result.steps_executed == 7

    def test_infinite_schedule_needs_budget(self):
        simulator = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        infinite = InfiniteSchedule(n=2, step_fn=lambda index: 1 + index % 2)
        with pytest.raises(SimulationError):
            simulator.run(infinite)
        result = simulator.run(infinite, max_steps=25)
        assert result.steps_executed == 25

    def test_observers_called_per_step(self):
        seen = []
        simulator = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        simulator.add_observer(lambda step, pid, sim: seen.append((step, pid)))
        simulator.run(Schedule(steps=(1, 2, 1), n=2))
        assert seen == [(1, 1), (2, 2), (3, 1)]

    def test_shared_register_file_is_reused(self):
        registers = RegisterFile()
        registers.declare("x", initial=5)
        simulator = Simulator(n=1, automata={1: IdleAutomaton(1, 1)}, registers=registers)
        assert simulator.registers.peek("x") == 5

    def test_rewind_restores_a_fresh_simulator(self):
        simulator = Simulator(n=2, automata={1: PingPong(1, 2), 2: PingPong(2, 2)})
        seen = []
        simulator.add_observer(lambda step, pid, sim: seen.append(step))
        first = simulator.run(Schedule(steps=(1, 2, 1, 2, 1, 2), n=2))
        assert simulator.halted_processes() == [1, 2]
        simulator.rewind()
        assert simulator.step_index == 0 and simulator.trace().steps == ()
        assert not simulator.observer_entries()
        assert simulator.halted_processes() == []
        assert [simulator.steps_taken(pid) for pid in (1, 2)] == [0, 0]
        assert simulator.outputs("seen") == {1: None, 2: None}
        assert simulator.registers.peek(("reg", 1)) is None
        # The replay runs exactly like the first run; the detached observer
        # sees none of it.
        again = simulator.run(Schedule(steps=(1, 2, 1, 2, 1, 2), n=2))
        assert again == first and seen == [1, 2, 3, 4, 5, 6]

    def test_step_array_runs_like_the_same_steps_in_a_list(self):
        from array import array

        steps = [1, 2, 2, 1, 2]
        by_list = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        by_array = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        assert by_array.run_fast(array("i", steps)) == by_list.run_fast(steps)
        assert by_array.run_fast(array("i", steps), max_steps=2).steps_executed == 2
        assert [by_array.steps_taken(pid) for pid in (1, 2)] == [3, 4]
        with pytest.raises(SimulationError, match="unknown process id 3"):
            by_array.run_fast(array("i", [1, 3]))

    def test_snapshot_needs_observers_that_snapshot(self):
        simulator = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        simulator.add_observer(lambda step, pid, sim: None)
        with pytest.raises(SimulationError, match="no snapshot"):
            simulator.snapshot()

    def test_tracker_refuses_a_snapshot_off_its_path(self):
        from repro.runtime.observers import OutputTracker

        simulator = Simulator(n=2, automata={1: PingPong(1, 2), 2: PingPong(2, 2)})
        tracker = OutputTracker(key="seen")
        tracker(1, 1, simulator)
        saved = tracker.snapshot()
        tracker(2, 2, simulator)
        tracker.restore(saved)
        assert [(change.step, change.pid) for change in tracker.changes] == [(1, 1)]
        del tracker.changes[:]
        tracker(3, 2, simulator)
        with pytest.raises(SimulationError, match="diverged"):
            tracker.restore(saved)

    def test_rewind_keeps_prebound_tables_valid(self):
        simulator = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        simulator.run_fast(Schedule(steps=(1, 2, 2), n=2))
        simulator.rewind()
        simulator.run_fast(Schedule(steps=(2, 2, 1), n=2))
        assert simulator.registers.peek(("idle-scratch", 2)) == 2
        assert simulator.registers.peek(("idle-scratch", 1)) == 1

    def test_run_result_outputs(self):
        simulator = Simulator(n=2, automata={1: PingPong(1, 2), 2: PingPong(2, 2)})
        result = simulator.run(Schedule(steps=(1, 2, 1, 2, 1, 2), n=2))
        assert result.outputs[1]["seen"] == 2
        assert result.halted_processes == [1, 2]


def _collector(automaton, ctx):
    """Write a value, then collect three registers forever (one read a step)."""
    yield WriteOp(("c", automaton.pid), automaton.pid)
    while True:
        values = yield CollectOp([("c", 1), ("c", 2), ("c", 3)])
        automaton.publish("collected", values)


class TestReferenceRunPerCall:
    """What one ``run`` call returns, next to what the simulator accumulates."""

    def test_second_run_returns_only_its_own_steps(self):
        simulator = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        first = simulator.run(Schedule(steps=(1, 2, 1), n=2))
        second = simulator.run(Schedule(steps=(2, 2), n=2))
        assert first.executed_schedule.steps == (1, 2, 1)
        assert second.executed_schedule.steps == (2, 2)
        assert second.steps_executed == 2
        assert simulator.trace().steps == (1, 2, 1, 2, 2)
        assert simulator.step_index == 5

    def test_run_after_run_fast_records_only_its_own_steps(self):
        simulator = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        simulator.run_fast(Schedule(steps=(1, 1, 2), n=2))
        result = simulator.run(Schedule(steps=(2, 1), n=2))
        assert result.executed_schedule.steps == (2, 1)
        assert result.steps_executed == 2
        assert simulator.trace().steps == (2, 1)
        assert simulator.step_index == 5
        assert [simulator.steps_taken(pid) for pid in (1, 2)] == [3, 2]

    def test_stop_condition_on_a_collect_step(self):
        simulator = build_simulator(3, lambda pid: FunctionAutomaton(pid, 3, _collector))
        # Process 1's step 1 writes; steps 2-4 are its collect's three reads.
        stops = []

        def stop(step, sim):
            stops.append(step)
            return step == 3

        result = simulator.run(Schedule(steps=(1,) * 10, n=3), stop_condition=stop)
        assert result.stopped_early
        assert result.steps_executed == 3 and stops == [1, 2, 3]
        assert result.executed_schedule.steps == (1, 1, 1)
        assert simulator.step_index == 3 and simulator.steps_taken(1) == 3
        # Mid-collect: two of the three reads done, the generator not resumed.
        assert simulator.output_of(1, "collected") is None
        assert simulator.registers.resolve(("c", 1)).read_count == 1
        assert simulator.registers.resolve(("c", 2)).read_count == 1
        assert simulator.registers.resolve(("c", 3)).read_count == 0
        rest = simulator.run(Schedule(steps=(1, 1), n=3))
        assert not rest.stopped_early and rest.executed_schedule.steps == (1, 1)
        assert simulator.output_of(1, "collected") == [1, None, None]

    def test_halted_process_steps_are_counted(self):
        simulator = Simulator(n=1, automata={1: PingPong(1, 1)})
        result = simulator.run(Schedule(steps=(1,) * 5, n=1))
        # PingPong returns on its third step; the two after it are no-ops
        # that still count as the process's steps.
        assert simulator.halted(1) and simulator.steps_taken(1) == 5
        assert result.executed_schedule.steps == (1,) * 5
