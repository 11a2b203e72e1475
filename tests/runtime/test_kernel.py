"""The execution kernel: observer capabilities, hot-loop register paths.

That the bare loop executes exactly what the reference run executes is the
conformance lane table's job
(``tests/conformance/test_lane_table.py``); this module checks the
mechanisms one at a time.
"""

import pytest

from repro.errors import RegisterError, SimulationError
from repro.runtime.automaton import FunctionAutomaton, IdleAutomaton, ReadOp, WriteOp
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import build_simulator
from repro.core.schedule import Schedule


def _fresh(n):
    return build_simulator(n, lambda pid: IdleAutomaton(pid, n))


class TestObserverCapabilities:
    def test_every_step_observer_rejected_by_run_fast(self):
        simulator = _fresh(2)
        seen = []
        simulator.add_observer(lambda step, pid, sim: seen.append(step))
        with pytest.raises(SimulationError, match="every_step"):
            simulator.run_fast(Schedule(steps=(1, 2), n=2))
        # Nothing executed: the check happens before the first step.
        assert simulator.step_index == 0 and not seen

    def test_every_step_observer_fine_under_run(self):
        simulator = _fresh(2)
        seen = []
        simulator.add_observer(lambda step, pid, sim: seen.append(step))
        simulator.run(Schedule(steps=(1, 2, 1), n=2))
        assert seen == [1, 2, 3]

    def test_explicit_capability_overrides_default(self):
        simulator = _fresh(2)
        sampled = []
        simulator.add_observer(
            lambda step, pid, sim: sampled.append((step, pid)), capability="on_publish"
        )
        result = simulator.run_fast(Schedule(steps=(1, 2, 1, 2), n=2))
        assert result.steps_executed == 4
        assert sampled  # the first sampled step of each process at minimum

    def test_output_tracker_declares_on_publish(self):
        assert OutputTracker.observer_capability == "on_publish"

    def test_unknown_capability_rejected_at_registration(self):
        simulator = _fresh(1)
        with pytest.raises(SimulationError, match="unknown observer capability"):
            simulator.add_observer(lambda step, pid, sim: None, capability="weekly")


# ----------------------------------------------------------------------
# Hot-loop register paths: lazy creation and single-writer enforcement
# ----------------------------------------------------------------------

#: The two loops: the reference run (one ``step`` per pid) and the bare loop,
#: each exercised with a tracker attached and without.
RUNNERS = ("run", "run_fast")


def _undeclared_toucher(automaton, ctx):
    """First touch of two undeclared registers happens inside the hot loop."""
    value = yield ReadOp(("ghost", automaton.pid))
    yield WriteOp(("phantom", automaton.pid), (value, "written"))
    automaton.publish("saw", value)
    while True:
        yield ReadOp(("ghost", automaton.pid))


class TestFastOpsMissPath:
    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "bare"])
    def test_first_touch_of_undeclared_register_inside_execute(self, runner, tracked):
        simulator = build_simulator(
            2, lambda pid: FunctionAutomaton(pid, 2, _undeclared_toucher)
        )
        if tracked:
            simulator.add_observer(OutputTracker(key="saw"))
        registers = simulator.registers
        assert not registers.exists(("ghost", 1))
        getattr(simulator, runner)(Schedule(steps=(1, 1, 2, 2, 1), n=2))
        # The registers sprang into existence inside the loop, unowned and
        # with the undeclared default of None, and every access was counted.
        assert registers.exists(("ghost", 1)) and registers.exists(("phantom", 1))
        assert registers.resolve(("ghost", 1)).writer is None
        assert registers.resolve(("ghost", 1)).read_count == 2
        assert registers.resolve(("phantom", 1)).write_count == 1
        assert registers.peek(("phantom", 1)) == (None, "written")
        assert simulator.output_of(1, "saw") is None
        assert registers.resolve(("ghost", 2)).read_count == 1

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_declared_initial_value_served_through_hot_loop(self, runner):

        def reader(automaton, ctx):
            value = yield ReadOp(("seeded",))
            automaton.publish("got", value)
            while True:
                yield ReadOp(("seeded",))

        simulator = build_simulator(1, lambda pid: FunctionAutomaton(pid, 1, reader))
        registers = simulator.registers
        registers.declare(("seeded",), initial=41)
        getattr(simulator, runner)(Schedule(steps=(1, 1), n=1))
        assert simulator.output_of(1, "got") == 41
        assert registers.resolve(("seeded",)).read_count == 2


def _owned_writer(automaton, ctx):
    """Every process writes the register owned by process 1."""
    count = 0
    while True:
        count += 1
        yield WriteOp(("owned", 1), (automaton.pid, count))


class TestSingleWriterViolationInHotLoop:
    def _violating_simulator(self, tracked):
        simulator = build_simulator(
            2, lambda pid: FunctionAutomaton(pid, 2, _owned_writer)
        )
        simulator.registers.declare(("owned", 1), initial=0, writer=1)
        if tracked:
            simulator.add_observer(OutputTracker(key="never"))
        return simulator

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "bare"])
    def test_violation_raises_canonical_error_mid_run(self, runner, tracked):
        simulator = self._violating_simulator(tracked)
        schedule = Schedule(steps=(1, 1, 2, 1), n=2)
        with pytest.raises(RegisterError, match="owned by process 1"):
            getattr(simulator, runner)(schedule)
        # Exact partial accounting: the two completed steps count, the
        # violating third step does not, and its write never landed.
        assert simulator.step_index == 2
        assert simulator.steps_taken(1) == 2 and simulator.steps_taken(2) == 0
        assert simulator.registers.peek(("owned", 1)) == (1, 2)
        assert simulator.registers.resolve(("owned", 1)).write_count == 2

    def test_violation_in_whole_buffer_bare_loop(self):
        from repro.core.schedule import CompiledSchedule

        compiled = CompiledSchedule(n=2, steps=[1, 1, 2, 1])
        healthy = self._violating_simulator(tracked=False)
        with pytest.raises(RegisterError, match="owned by process 1"):
            healthy.run_fast(compiled)
        assert healthy.step_index == 2
        assert healthy.steps_taken(1) == 2 and healthy.steps_taken(2) == 0
        assert healthy.registers.peek(("owned", 1)) == (1, 2)
