"""The execution kernel: policies, observer capabilities, hot-loop register paths.

That every policy and loop executes exactly what the instrumented reference
executes is the conformance lane table's job
(``tests/conformance/test_lane_table.py``); this module checks the
mechanisms one at a time.
"""

import pytest

from repro.errors import RegisterError, SimulationError
from repro.runtime.automaton import FunctionAutomaton, IdleAutomaton, ReadOp, WriteOp
from repro.runtime.kernel import (
    EVERY_STEP,
    FAST,
    FAST_TRACED,
    INSTRUMENTED,
    ON_PUBLISH,
    ExecutionPolicy,
    trace_sampling,
)
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import build_simulator
from repro.core.schedule import Schedule


def _fresh(n):
    return build_simulator(n, lambda pid: IdleAutomaton(pid, n))


class TestPolicies:
    def test_builtin_policy_shapes(self):
        assert INSTRUMENTED.sampling == EVERY_STEP and INSTRUMENTED.collect_trace
        assert FAST.sampling == ON_PUBLISH and not FAST.collect_trace
        assert FAST_TRACED.collect_trace and FAST_TRACED.trace_stride == 1

    def test_trace_sampling_policy_validation(self):
        assert trace_sampling(10).trace_stride == 10
        with pytest.raises(SimulationError):
            trace_sampling(0)
        with pytest.raises(SimulationError):
            ExecutionPolicy(name="bogus", sampling="sometimes", collect_trace=False)

    def test_trace_sampling_records_every_stride_th_step(self):
        schedule = Schedule(steps=(1, 2) * 30, n=2)
        simulator = _fresh(2)
        result = simulator.run_with_policy(schedule, trace_sampling(10))
        assert result.steps_executed == 60
        # Steps 1, 11, 21, ... of the run are recorded: six samples.
        assert len(result.executed_schedule.steps) == 6
        assert simulator.trace().steps == result.executed_schedule.steps


class TestObserverCapabilities:
    def test_every_step_observer_rejected_by_fast_policy(self):
        simulator = _fresh(2)
        seen = []
        simulator.add_observer(lambda step, pid, sim: seen.append(step))
        with pytest.raises(SimulationError, match="every_step"):
            simulator.run_fast(Schedule(steps=(1, 2), n=2))
        # Nothing executed: the check happens before the first step.
        assert simulator.step_index == 0 and not seen

    def test_every_step_observer_fine_under_instrumented_policy(self):
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

#: Every execution-loop flavour the kernel can select.  ``fast`` without
#: observers routes to the bare loop, so the same policy is exercised twice:
#: with a tracker attached (general loop) and without (bare loop).
ALL_POLICIES = {
    "instrumented": INSTRUMENTED,
    "fast": FAST,
    "fast+trace": FAST_TRACED,
}


def _undeclared_toucher(automaton, ctx):
    """First touch of two undeclared registers happens inside the hot loop."""
    value = yield ReadOp(("ghost", automaton.pid))
    yield WriteOp(("phantom", automaton.pid), (value, "written"))
    automaton.publish("saw", value)
    while True:
        yield ReadOp(("ghost", automaton.pid))


class TestFastOpsMissPath:
    @pytest.mark.parametrize("policy_name", sorted(ALL_POLICIES))
    @pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "bare"])
    def test_first_touch_of_undeclared_register_inside_execute(self, policy_name, tracked):
        policy = ALL_POLICIES[policy_name]
        simulator = build_simulator(
            2, lambda pid: FunctionAutomaton(pid, 2, _undeclared_toucher)
        )
        if tracked:
            simulator.add_observer(OutputTracker(key="saw"))
        registers = simulator.registers
        assert not registers.exists(("ghost", 1))
        simulator.run_with_policy(Schedule(steps=(1, 1, 2, 2, 1), n=2), policy)
        # The registers sprang into existence inside the loop, unowned and
        # with the undeclared default of None, and every access was counted.
        assert registers.exists(("ghost", 1)) and registers.exists(("phantom", 1))
        assert registers.resolve(("ghost", 1)).writer is None
        assert registers.resolve(("ghost", 1)).read_count == 2
        assert registers.resolve(("phantom", 1)).write_count == 1
        assert registers.peek(("phantom", 1)) == (None, "written")
        assert simulator.output_of(1, "saw") is None
        assert registers.resolve(("ghost", 2)).read_count == 1

    @pytest.mark.parametrize("policy_name", sorted(ALL_POLICIES))
    def test_declared_initial_value_served_through_hot_loop(self, policy_name):
        policy = ALL_POLICIES[policy_name]

        def reader(automaton, ctx):
            value = yield ReadOp(("seeded",))
            automaton.publish("got", value)
            while True:
                yield ReadOp(("seeded",))

        simulator = build_simulator(1, lambda pid: FunctionAutomaton(pid, 1, reader))
        registers = simulator.registers
        registers.declare(("seeded",), initial=41)
        simulator.run_with_policy(Schedule(steps=(1, 1), n=1), policy)
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

    @pytest.mark.parametrize("policy_name", sorted(ALL_POLICIES))
    @pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "bare"])
    def test_violation_raises_canonical_error_mid_run(self, policy_name, tracked):
        policy = ALL_POLICIES[policy_name]
        simulator = self._violating_simulator(tracked)
        schedule = Schedule(steps=(1, 1, 2, 1), n=2)
        with pytest.raises(RegisterError, match="owned by process 1"):
            simulator.run_with_policy(schedule, policy)
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
