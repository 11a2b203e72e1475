"""Collect ops: one read per step, one generator resume per collect.

A :class:`~repro.runtime.automaton.CollectOp` spreads its reads over the
yielding process's scheduled steps, and the process's in-flight collect lives
in its :class:`~repro.runtime.simulator.ProcessState`.  That every way of
cutting a run into pieces (segments on alternating loops, a stop condition,
single steps, snapshots) and unbound collects reproduce one whole run exactly
is the conformance lane table's job (``tests/conformance/test_lane_table.py``,
its ``collecting`` setup and Figure 2).

Under :meth:`~repro.runtime.simulator.Simulator.run` an ``every_step``
observer sees each collect read as its own step, each one shared-memory
operation.
"""

import pytest

from repro.errors import SimulationError
from repro.failure_detectors.anti_omega import make_anti_omega_algorithm
from repro.memory.registers import RegisterFile
from repro.core.schedule import Schedule
from repro.runtime.automaton import (
    BoundCollectOp,
    BoundReadOp,
    CollectOp,
    FunctionAutomaton,
    ReadOp,
    WriteOp,
    is_collect_operation,
    validate_operation,
)
from repro.runtime.composition import ComposedAutomaton
from repro.runtime.simulator import build_simulator

N, T, K = 3, 2, 1


class TestCollectOpValues:
    def test_bind_reads_and_validation(self):
        registers = RegisterFile()
        collect = CollectOp([("a",), ("b",)])
        bound = collect.bind(registers)
        assert isinstance(bound, BoundCollectOp)
        assert bound.registers == (("a",), ("b",))
        assert bound.slots == (registers.resolve_slot(("a",)), registers.resolve_slot(("b",)))
        assert collect.reads() == (ReadOp(("a",)), ReadOp(("b",)))
        assert [(read.register, read.slot) for read in bound.reads()] == list(
            zip(bound.registers, bound.slots)
        )
        assert all(isinstance(read, BoundReadOp) for read in bound.reads())
        for op in (collect, bound):
            assert validate_operation(op) is op
            assert is_collect_operation(op)
        assert not is_collect_operation(ReadOp(("a",)))
        assert collect == CollectOp((("a",), ("b",)))
        assert hash(collect) == hash(CollectOp((("a",), ("b",))))
        assert collect != ReadOp(("a",))

    def test_empty_collect_is_rejected(self):
        with pytest.raises(SimulationError, match="at least one register"):
            CollectOp([])

    def test_detector_yields_the_two_collects(self):
        automaton = make_anti_omega_algorithm(n=N, t=T, k=K)[1]
        generator = automaton.program(automaton.context())
        counters = generator.send(None)
        assert isinstance(counters, CollectOp)
        assert counters.registers == tuple(
            ("Counter", a_set, q) for a_set in automaton.ksets for q in range(1, N + 1)
        )
        write = generator.send([0] * len(counters.registers))
        assert isinstance(write, WriteOp) and write.register == ("Heartbeat", 1)
        heartbeats = generator.send(None)
        assert heartbeats.registers == tuple(("Heartbeat", q) for q in range(1, N + 1))


def _collecting_program(automaton, ctx):
    """Collects of one and of three registers around writes; publishes what it saw."""
    pid = automaton.pid
    count = 0
    while True:
        (own,) = yield CollectOp([("cell", pid)])
        values = yield CollectOp([("cell", q) for q in (1, 2, 3)])
        automaton.publish("seen", tuple(values))
        count += 1
        yield WriteOp(("cell", pid), (own or 0) + count)


class TestOneReadPerStep:
    def test_every_step_observer_sees_one_operation_per_step(self):
        simulator = build_simulator(3, lambda pid: FunctionAutomaton(pid, 3, _collecting_program))
        seen = []

        def every_step(step, pid, sim):
            registers = sim.registers
            seen.append((step, pid, registers.total_reads() + registers.total_writes(),
                         sim.steps_taken(pid)))

        simulator.add_observer(every_step, capability="every_step")
        steps = [1, 1, 2, 1, 3, 3, 1, 2, 2, 2, 3, 1, 1, 3, 2, 3, 3, 1, 2, 1]
        simulator.run(Schedule(steps=tuple(steps), n=3))
        assert [entry[0] for entry in seen] == list(range(1, len(steps) + 1))
        assert [entry[2] for entry in seen] == list(range(1, len(steps) + 1))
        taken = {1: 0, 2: 0, 3: 0}
        for (_, pid, _, steps_taken) in seen:
            taken[pid] += 1
            assert steps_taken == taken[pid]

    def test_generator_resumes_once_per_collect(self):
        resumes = []

        def program(automaton, ctx):
            while True:
                resumes.append("collect")
                values = yield CollectOp([("r", q) for q in range(4)])
                resumes.append(("values", tuple(values)))
                yield WriteOp(("r", 0), len(resumes))

        simulator = build_simulator(1, lambda pid: FunctionAutomaton(pid, 1, program))
        result = simulator.run_fast([1] * 10)
        assert result.steps_executed == 10
        # Steps 1-4 read, step 5 resumes and writes, steps 6-9 read, step 10
        # resumes and writes: two resumes with values, not eight.
        assert resumes == ["collect", ("values", (None, None, None, None)), "collect",
                           ("values", (2, None, None, None))]
        assert simulator.registers.total_reads() == 8
        assert simulator.registers.total_writes() == 2


class TestComposition:
    def test_composition_expands_collects_into_single_reads(self):
        def collecting(automaton, ctx):
            values = yield CollectOp([("x", 1), ("x", 2), ("x", 3)])
            automaton.publish("values", tuple(values))
            yield WriteOp(("done", automaton.pid), True)

        def single_reads(automaton, ctx):
            values = []
            for q in (1, 2, 3):
                values.append((yield ReadOp(("x", q))))
            automaton.publish("values", tuple(values))
            yield WriteOp(("done", automaton.pid), True)

        def writer(automaton, ctx):
            for round_index in range(1, 5):
                yield WriteOp(("x", round_index % 3 + 1), round_index)

        def run(first):
            def factory(pid):
                return ComposedAutomaton(
                    pid=pid,
                    n=1,
                    components=[
                        ("reader", FunctionAutomaton(pid, 1, first)),
                        ("writer", FunctionAutomaton(pid, 1, writer)),
                    ],
                )

            simulator = build_simulator(1, factory)
            yielded = []
            simulator.add_observer(
                lambda step, pid, sim: yielded.append(sim.registers.total_reads()),
                capability="every_step",
            )
            simulator.run([1] * 9)
            return yielded, simulator.automaton(1).outputs, simulator.steps_taken(1)

        collected = run(collecting)
        assert collected == run(single_reads)
        # Reads and writes alternate, so each read sees the writes before it;
        # three reads in a row would have collected (None, None, None).
        assert collected[0] == [1, 1, 2, 2, 3, 3, 3, 3, 3]
        assert collected[1]["reader.values"] == (None, 1, 2)
