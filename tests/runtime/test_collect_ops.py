"""Collect ops: one read per step, one generator resume per collect.

A :class:`~repro.runtime.automaton.CollectOp` spreads its reads over the
yielding process's scheduled steps, and the process's in-flight collect lives
in its :class:`~repro.runtime.simulator.ProcessState`.  Every way of cutting
a run into pieces must therefore reproduce one whole run exactly — outputs,
tracker change lists, register values and read/write counts, and
``steps_taken``:

* segment boundaries at every point of a short buffer, on every pair of
  executors (the bare loop with and without observers, the general loop,
  single steps through :meth:`Simulator.step`);
* a stop condition firing at every step;
* prebinding disabled against bound runs.

Under the instrumented policy an ``every_step`` observer sees each collect
read as its own step, each one shared-memory operation.
"""

import pytest

from repro.core.schedule import CompiledSchedule, Schedule
from repro.errors import SimulationError
from repro.failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    make_anti_omega_algorithm,
)
from repro.failure_detectors.base import make_detector_trackers
from repro.memory.registers import RegisterFile
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
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator, build_simulator, prebinding_disabled
from repro.scenarios.spec import build_generator

N, T, K = 3, 2, 1


def _buffer(length=90):
    params = {"schedule": "set-timely", "n": N, "p_set": [1], "q_set": [1, 2, 3],
              "bound": 3, "seed": 4}
    return list(build_generator(params).compile(length).steps)


def _detector(prebind=True):
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=N, k=K)
    automata = make_anti_omega_algorithm(n=N, t=T, k=K)
    simulator = Simulator(n=N, automata=automata, registers=registers, prebind=prebind)
    trackers = make_detector_trackers()
    return simulator, trackers


def _observe(simulator, trackers):
    registers = simulator.registers
    return (
        {pid: dict(simulator.automaton(pid).outputs) for pid in range(1, N + 1)},
        [simulator.steps_taken(pid) for pid in range(1, N + 1)],
        simulator.step_index,
        sorted(
            (repr(name), registers.resolve(name).value,
             registers.resolve(name).read_count, registers.resolve(name).write_count)
            for name in registers.names()
        ),
        [[(c.step, c.pid, c.value) for c in tracker.changes] for tracker in trackers],
    )


def _run_bare(simulator, steps):
    simulator.run_fast(CompiledSchedule(n=N, steps=steps))


def _run_fast_list(simulator, steps):
    simulator.run_fast(list(steps))


def _run_instrumented(simulator, steps):
    simulator.run(Schedule(steps=tuple(steps), n=N))


def _run_stepwise(simulator, steps):
    for pid in steps:
        simulator.step(pid)


#: Executors that carry the trackers, and the observer-free bare loop.
TRACKED = {
    "bare-tracked": _run_bare,
    "fast-list": _run_fast_list,
    "instrumented": _run_instrumented,
    "stepwise": _run_stepwise,
}


def _whole(tracked=True):
    simulator, trackers = _detector()
    if tracked:
        for tracker in trackers:
            simulator.add_observer(tracker)
    else:
        trackers = ()
    _run_instrumented(simulator, _buffer())
    return _observe(simulator, trackers)


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

    def test_unbound_and_bound_collects_agree(self):
        def run(prebind):
            simulator, trackers = _detector(prebind=prebind)
            for tracker in trackers:
                simulator.add_observer(tracker)
            _run_bare(simulator, _buffer())
            return _observe(simulator, trackers)

        bound = run(prebind=True)
        with prebinding_disabled():
            unbound = run(prebind=True)
        assert unbound == bound == _whole()
        assert run(prebind=False) == bound

    def test_collects_of_one_and_many_registers_in_every_executor(self):
        steps = [1, 2, 3, 1, 1, 2, 3, 3, 3, 2, 1, 2, 2, 1, 3, 1, 2, 3, 3, 1, 1, 1]

        def run(executor):
            simulator = build_simulator(
                3, lambda pid: FunctionAutomaton(pid, 3, _collecting_program)
            )
            tracker = OutputTracker(key="seen")
            simulator.add_observer(tracker)
            executor(simulator, steps[:9])
            executor(simulator, steps[9:])
            registers = simulator.registers
            return (
                tracker.changes,
                [simulator.steps_taken(pid) for pid in (1, 2, 3)],
                sorted((name, registers.resolve(name).value, registers.resolve(name).read_count,
                        registers.resolve(name).write_count) for name in registers.names()),
            )

        def instrumented(simulator, part):
            simulator.run(Schedule(steps=tuple(part), n=3))

        def stepwise(simulator, part):
            for pid in part:
                simulator.step(pid)

        def fast(simulator, part):
            simulator.run_fast(list(part))

        reference = run(instrumented)
        assert run(stepwise) == reference
        assert run(fast) == reference


class TestSegmentedRuns:
    @pytest.mark.parametrize("second", sorted(TRACKED))
    @pytest.mark.parametrize("first", sorted(TRACKED))
    def test_every_split_matches_the_whole_run(self, first, second):
        whole = _whole()
        buffer = _buffer()
        for cut in range(1, len(buffer)):
            simulator, trackers = _detector()
            for tracker in trackers:
                simulator.add_observer(tracker)
            TRACKED[first](simulator, buffer[:cut])
            TRACKED[second](simulator, buffer[cut:])
            assert _observe(simulator, trackers) == whole, f"cut at {cut}"

    def test_tracker_attached_between_segments(self):
        # The second segment's first step of each process is sampled even
        # mid-collect, so a tracker attached between segments records every
        # process's current output there, on every executor.
        buffer = _buffer()
        for cut in range(1, len(buffer)):
            recorded = {}
            for name in ("bare-tracked", "instrumented", "stepwise"):
                simulator, _ = _detector()
                _run_bare(simulator, buffer[:cut])
                trackers = make_detector_trackers()
                for tracker in trackers:
                    simulator.add_observer(tracker)
                TRACKED[name](simulator, buffer[cut:])
                recorded[name] = _observe(simulator, trackers)
            assert recorded["bare-tracked"] == recorded["instrumented"], f"cut at {cut}"
            assert recorded["stepwise"] == recorded["instrumented"], f"cut at {cut}"

    def test_every_split_on_the_observer_free_bare_loop(self):
        whole = _whole(tracked=False)
        buffer = _buffer()
        for cut in range(1, len(buffer)):
            simulator, _ = _detector()
            _run_bare(simulator, buffer[:cut])
            _run_bare(simulator, buffer[cut:])
            assert _observe(simulator, ()) == whole, f"cut at {cut}"

    def test_three_segments_alternating_loops(self):
        whole = _whole()
        buffer = _buffer()
        for cut in range(1, len(buffer) - 7, 3):
            simulator, trackers = _detector()
            for tracker in trackers:
                simulator.add_observer(tracker)
            _run_bare(simulator, buffer[:cut])
            _run_stepwise(simulator, buffer[cut:cut + 7])
            _run_bare(simulator, buffer[cut + 7:])
            assert _observe(simulator, trackers) == whole, f"cuts at {cut}, {cut + 7}"

    def test_stop_condition_at_every_step(self):
        whole = _whole()
        buffer = _buffer()
        for stop_at in range(1, len(buffer)):
            simulator, trackers = _detector()
            for tracker in trackers:
                simulator.add_observer(tracker)
            result = simulator.run_fast(
                CompiledSchedule(n=N, steps=buffer),
                stop_condition=lambda step, sim: step == stop_at,
            )
            assert result.stopped_early and result.steps_executed == stop_at
            _run_bare(simulator, buffer[stop_at:])
            assert _observe(simulator, trackers) == whole, f"stop at {stop_at}"


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
