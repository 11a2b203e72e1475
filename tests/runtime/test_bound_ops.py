"""The slot-addressed operation pipeline: bind mechanics and prebind wiring.

That slot-bound dispatch through every loop executes exactly what the
name-addressed reference does, for the function automata, Figure 2 and the
agreement stack, is the conformance lane table's job
(``tests/conformance/test_lane_table.py``).
"""

import pytest

from repro.core.schedule import Schedule
from repro.errors import RegisterError, SimulationError
from repro.failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    make_anti_omega_algorithm,
)
from repro.memory.registers import RegisterFile
from repro.runtime.automaton import (
    BoundCollectOp,
    BoundReadOp,
    BoundWriteOp,
    FunctionAutomaton,
    IdleAutomaton,
    ProcessAutomaton,
    ReadOp,
    WriteOp,
    is_read_operation,
    validate_operation,
)
from repro.runtime.composition import ComposedAutomaton
from repro.runtime.simulator import Simulator, build_simulator


# ----------------------------------------------------------------------
# Bind mechanics
# ----------------------------------------------------------------------

class TestBindMechanics:
    def test_read_bind_interns_and_carries_the_slot(self):
        registers = RegisterFile()
        registers.declare(("Heartbeat", 2), initial=0, writer=2)
        bound = ReadOp(("Heartbeat", 2)).bind(registers)
        assert isinstance(bound, BoundReadOp)
        assert bound.register == ("Heartbeat", 2)
        assert bound.slot == registers.arena_view().slots[("Heartbeat", 2)]

    def test_write_bind_carries_the_value_and_stays_assignable(self):
        registers = RegisterFile()
        bound = WriteOp(("x",), 7).bind(registers)
        assert isinstance(bound, BoundWriteOp)
        assert bound.value == 7
        bound.value = 8  # the reusable-cell contract for prebound tables
        assert bound.value == 8

    def test_bind_on_undeclared_name_uses_declared_defaults_lazily(self):
        registers = RegisterFile()
        registers.declare(("owned",), initial=3, writer=1)
        bound = ReadOp(("owned",)).bind(registers)
        arena = registers.arena_view()
        assert arena.values[bound.slot] == 3
        assert arena.writers[bound.slot] == 1

    def test_bind_before_declare_survives_redeclaration(self):
        # Binding interns the slot; a later declare() resets the slot in
        # place, so the bound op still addresses the declared register.
        registers = RegisterFile()
        bound = ReadOp(("late",)).bind(registers)
        registers.declare(("late",), initial=41)
        assert registers.arena_view().values[bound.slot] == 41

    def test_validate_operation_accepts_bound_ops(self):
        registers = RegisterFile()
        read = ReadOp(("r",)).bind(registers)
        write = WriteOp(("r",), 1).bind(registers)
        assert validate_operation(read) is read
        assert validate_operation(write) is write
        assert is_read_operation(read) and not is_read_operation(write)

    def test_unbound_ops_still_compare_by_value(self):
        assert ReadOp("r") == ReadOp("r")
        assert WriteOp("r", 1) == WriteOp("r", 1)
        assert ReadOp("r") != ReadOp("s")
        assert WriteOp("r", 1) != WriteOp("r", 2)
        assert hash(ReadOp("r")) == hash(ReadOp("r"))


# ----------------------------------------------------------------------
# Prebind wiring
# ----------------------------------------------------------------------

class TestPrebindWiring:
    def test_simulator_prebinds_automata_at_construction(self):
        simulator = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        for pid in (1, 2):
            assert simulator.automaton(pid)._bound_scratch is not None

    def test_prebind_flag_disables_binding(self):
        bare = build_simulator(2, lambda pid: IdleAutomaton(pid, 2), prebind=False)
        assert bare.automaton(1)._bound_scratch is None

    def test_reused_automaton_is_unbound_when_prebinding_is_disabled(self):
        # An automaton bound to simulator A's register file must not leak
        # stale slots into simulator B when B asked for name-addressed
        # dispatch: constructing B unbinds it.
        automata = {pid: IdleAutomaton(pid, 2) for pid in (1, 2)}
        first = Simulator(n=2, automata=automata)
        assert automata[1]._bound_scratch is not None
        second = Simulator(n=2, automata=automata, prebind=False)
        assert automata[1]._bound_scratch is None
        result = second.run_fast(Schedule(steps=(1, 2, 1), n=2))
        assert result.steps_executed == 3
        assert second.registers.peek(("idle-scratch", 1)) == 2
        assert first.registers.total_writes() == 0  # nothing leaked into A

    def test_reused_detector_is_unbound_when_prebinding_is_disabled(self):
        automata = make_anti_omega_algorithm(n=3, t=1, k=1)
        registers = RegisterFile()
        KAntiOmegaAutomaton.declare_registers(registers, n=3, k=1)
        Simulator(n=3, automata=automata, registers=registers)
        assert automata[1]._heartbeat_write is not None
        fresh = Simulator(n=3, automata=automata, prebind=False)
        assert automata[1]._heartbeat_write is None
        generator = automata[1].program(automata[1].context())
        assert isinstance(generator.send(None), ReadOp)
        assert fresh.registers.total_reads() == 0

    def test_stale_binding_to_another_simulator_fails_loudly(self):
        # Constructing a second simulator over the same automata rebinds
        # their tables; the first simulator must refuse to start programs
        # whose ops carry the other file's slots instead of silently
        # aliasing registers.
        automata = {pid: IdleAutomaton(pid, 2) for pid in (1, 2)}
        first = Simulator(n=2, automata=automata)
        second = Simulator(n=2, automata=automata)
        with pytest.raises(SimulationError, match="pre-bound to a different"):
            first.run_fast(Schedule(steps=(1,), n=2))
        assert first.registers.total_writes() == 0  # nothing executed
        # The currently bound simulator runs fine, and rebinding heals the
        # first one.
        second.run_fast(Schedule(steps=(1, 2), n=2))
        for automaton in automata.values():
            automaton.prebind(first.registers)
            automaton._prebound_registers = first.registers
        first.run_fast(Schedule(steps=(1, 2), n=2))
        assert first.registers.total_writes() == 2

    def test_trivial_agreement_interns_identical_namespaces_bound_and_unbound(self):
        from repro.agreement.trivial import TrivialKSetAgreementAutomaton

        def factory(pid):
            return TrivialKSetAgreementAutomaton(
                pid=pid, n=4, t=1, k=2, input_value=pid * 100
            )

        schedule = Schedule(steps=(1, 2, 3, 4) * 6, n=4)
        bound_sim = build_simulator(4, factory)
        unbound_sim = build_simulator(4, factory, prebind=False)
        bound = bound_sim.run_fast(schedule)
        unbound = unbound_sim.run_fast(schedule)
        assert bound.outputs == unbound.outputs
        assert sorted(map(repr, bound_sim.registers.names())) == sorted(
            map(repr, unbound_sim.registers.names())
        )
        assert bound_sim.registers.snapshot_values() == unbound_sim.registers.snapshot_values()

    def test_idle_automaton_runs_identically_bound_and_unbound(self):
        schedule = Schedule(steps=(1, 2, 1, 1, 2) * 6, n=2)
        bound_sim = build_simulator(2, lambda pid: IdleAutomaton(pid, 2))
        unbound_sim = build_simulator(2, lambda pid: IdleAutomaton(pid, 2), prebind=False)
        bound = bound_sim.run_fast(schedule)
        unbound = unbound_sim.run_fast(schedule)
        assert bound.steps_executed == unbound.steps_executed
        assert bound_sim.registers.snapshot_values() == unbound_sim.registers.snapshot_values()
        assert bound_sim.registers.total_writes() == unbound_sim.registers.total_writes()

    def test_composition_forwards_prebind_to_components(self):
        composed = ComposedAutomaton(
            pid=1,
            n=2,
            components=[
                ("a", IdleAutomaton(1, 2)),
                ("b", IdleAutomaton(1, 2)),
            ],
        )
        registers = RegisterFile()
        composed.prebind(registers)
        for _, component in composed._components:
            assert component._bound_scratch is not None

    def test_detector_yields_bound_ops_after_prebind(self):
        registers = RegisterFile()
        KAntiOmegaAutomaton.declare_registers(registers, n=3, k=1)
        automaton = KAntiOmegaAutomaton(pid=1, n=3, t=1, k=1)
        automaton.prebind(registers)
        generator = automaton.program(automaton.context())
        op = generator.send(None)
        # The counter sweep of lines 2-5 is one bound collect.
        assert isinstance(op, BoundCollectOp)
        assert op.slots == tuple(registers.resolve_slot(name) for name in op.registers)

    def test_step_api_executes_bound_ops_by_name(self):
        def program(automaton, ctx):
            read = ReadOp(("r",))
            write = WriteOp(("r",), 0)
            bound_read = None
            bound_write = None
            while True:
                if bound_read is None:
                    bound_read = automaton.bound_read
                    bound_write = automaton.bound_write
                value = yield bound_read
                bound_write.value = (value or 0) + 1
                yield bound_write

        simulator = build_simulator(1, lambda pid: FunctionAutomaton(pid, 1, program))
        automaton = simulator.automaton(1)
        automaton.bound_read = ReadOp(("r",)).bind(simulator.registers)
        automaton.bound_write = WriteOp(("r",), 0).bind(simulator.registers)
        for _ in range(6):
            simulator.step(1)
        assert simulator.registers.peek(("r",)) == 3
        assert simulator.registers.resolve(("r",)).read_count == 3


class _OwnedWriterAutomaton(ProcessAutomaton):
    """Prebinds a write to a register owned by process 1 — every other pid
    must trip the single-writer check from the slot-dispatch fast path."""

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self._write = None

    def prebind(self, registers):
        self._write = WriteOp(("owned", 1), 0).bind(registers)

    def program(self, ctx):
        count = 0
        while True:
            count += 1
            self._write.value = (self.pid, count)
            yield self._write


class TestBoundSingleWriterViolation:
    def _simulator(self):
        simulator = build_simulator(2, lambda pid: _OwnedWriterAutomaton(pid, 2))
        simulator.registers.declare(("owned", 1), initial=0, writer=1)
        return simulator

    @pytest.mark.parametrize("runner", ["run", "run_fast"])
    def test_violation_raises_canonical_error_with_exact_accounting(self, runner):
        simulator = self._simulator()
        schedule = Schedule(steps=(1, 1, 2, 1), n=2)
        with pytest.raises(RegisterError, match="owned by process 1"):
            getattr(simulator, runner)(schedule)
        assert simulator.step_index == 2
        assert simulator.steps_taken(1) == 2 and simulator.steps_taken(2) == 0
        assert simulator.registers.peek(("owned", 1)) == (1, 2)
        assert simulator.registers.resolve(("owned", 1)).write_count == 2

    def test_violation_in_whole_buffer_bare_loop(self):
        from repro.core.schedule import CompiledSchedule

        simulator = self._simulator()
        with pytest.raises(RegisterError, match="owned by process 1"):
            simulator.run_fast(CompiledSchedule(n=2, steps=[1, 1, 2, 1]))
        assert simulator.step_index == 2
        assert simulator.registers.peek(("owned", 1)) == (1, 2)
