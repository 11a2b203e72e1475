"""``tally_steps`` against the plain-Python passes it replaced.

:func:`repro.core.schedule.tally_steps` validates and counts a step buffer
with C-level bytes scans.  Each test here runs one of its callers next to
the per-element definition that caller used before, on generated buffers
that mix valid steps with zero, negative, ``> 255`` and ``> n`` values, over
small and ``n > 255`` systems, empty buffers and buffers longer than one
packing chunk, and requires the same result — or the same exception type
and message.
"""

from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.schedule import (
    CompiledSchedule,
    Schedule,
    _PACK_CHUNK,
    first_step_outside,
    tally_steps,
)
from repro.errors import ScheduleError, SimulationError
from repro.runtime.automaton import FunctionAutomaton, WriteOp
from repro.runtime.simulator import Simulator

#: Values outside ``1..n`` for every small ``n``, and outside ``0..255``.
OUT_OF_RANGE = (0, -1, -7, -256, 256, 257, 511, 2**31 - 1, -(2**31))


@st.composite
def systems(draw):
    """A universe size: small, or too wide for one byte per process."""
    return draw(st.one_of(st.integers(1, 8), st.integers(250, 300)))


@st.composite
def step_lists(draw, n):
    """Steps that are mostly in ``1..n``, with out-of-range values mixed in."""
    valid = st.integers(1, n)
    invalid = st.one_of(st.sampled_from(OUT_OF_RANGE + (n + 1, n + 2)), st.integers(-300, 600))
    mixed = st.lists(st.one_of(valid, valid, valid, invalid), max_size=40)
    clean = st.lists(valid, max_size=40)
    steps = draw(st.one_of(mixed, clean))
    if draw(st.booleans()):
        # Past one packing chunk, with at most one bad value anywhere.
        steps = (steps or [1]) * (_PACK_CHUNK // max(len(steps), 1) + 2)
        if draw(st.booleans()):
            steps[draw(st.integers(0, len(steps) - 1))] = draw(invalid)
    return steps


@st.composite
def buffers(draw):
    """``(n, steps)`` with steps as an ``array('i')``, a tuple or a list."""
    n = draw(systems())
    steps = draw(step_lists(n))
    shape = draw(st.sampled_from(["array", "tuple", "list"]))
    if shape == "array":
        return n, array("i", steps)
    return n, tuple(steps) if shape == "tuple" else steps


def reference_tally(steps, n):
    """The ``Counter`` pass: counts for all of ``Πn``, or ``None`` on a bad step."""
    counter = Counter(steps)
    if any(not 1 <= pid <= n for pid in counter):
        return None
    return {pid: counter.get(pid, 0) for pid in range(1, n + 1)}


def outcome(produce):
    """What ``produce()`` returned, or the type and message it raised."""
    try:
        return produce()
    except (ScheduleError, SimulationError) as error:
        return type(error), str(error)


#: Values whose low byte is a valid pid: only the other bytes show them bad.
ALIASING = (257, 513, 2**16 + 1, 2**24 + 2, -255, -(2**31) + 1)


class TestTallyDifferential:
    @settings(max_examples=300)
    @given(buffers())
    @example((3, array("i", [1, 2, 0])))
    @example((3, array("i", [3] * (2 * _PACK_CHUNK) + [257])))
    @example((3, array("i", [257] + [3] * (2 * _PACK_CHUNK))))
    @example((260, array("i", [259, 260, 261])))
    @example((4, ()))
    @example((4, array("i")))
    def test_matches_counter_pass(self, buffer):
        n, steps = buffer
        assert tally_steps(steps, n) == reference_tally(steps, n)

    @given(buffers())
    def test_first_step_outside_matches_scan(self, buffer):
        n, steps = buffer
        expected = next(
            ((index, pid) for index, pid in enumerate(steps) if not 1 <= pid <= n), None
        )
        assert first_step_outside(steps, n) == expected

    @pytest.mark.parametrize("value", ALIASING)
    def test_high_bytes_reject_aliasing_values(self, value):
        for steps in ([value], [1, value, 2], [2] * _PACK_CHUNK + [value]):
            assert tally_steps(array("i", steps), 3) is None
            assert tally_steps(array("q", steps), 3) is None
            assert tally_steps(tuple(steps), 3) is None

    @pytest.mark.parametrize("typecode", list("bBhHiIlLqQ"))
    def test_every_integer_typecode(self, typecode):
        for n in (3, 255, 260):
            for steps in ([1, 2, 3, 3], [0, 1], [1, 4], [2, 255], [1, 127], []):
                try:
                    buffer = array(typecode, steps)
                except OverflowError:
                    continue
                assert tally_steps(buffer, n) == reference_tally(steps, n), (typecode, n, steps)

    def test_non_integer_sequences_are_not_packed(self):
        # A float array's raw bytes are not step ids; the fallback judges values.
        assert tally_steps(array("d", [1.0, 2.0]), 2) == {1: 1, 2: 1}
        assert tally_steps(range(1, 4), 3) == {1: 1, 2: 1, 3: 1}
        assert tally_steps(range(0, 4), 3) is None


class TestCallersDifferential:
    @given(buffers())
    def test_schedule_construction(self, buffer):
        n, steps = buffer

        def reference():
            normalized = tuple(int(p) for p in steps)
            for index, p in enumerate(normalized):
                if not 1 <= p <= n:
                    raise ScheduleError(
                        f"step {index} schedules process {p}, outside Πn = {{1..{n}}}"
                    )
            return normalized

        expected = outcome(reference)
        actual = outcome(lambda: Schedule(steps=steps, n=n).steps)
        assert actual == expected

    @given(buffers())
    def test_schedule_counts(self, buffer):
        n, steps = buffer
        if reference_tally(steps, n) is None:
            return
        assert Schedule(steps=steps, n=n).counts() == reference_tally(steps, n)

    @given(buffers())
    def test_compiled_schedule_construction_and_counts(self, buffer):
        n, steps = buffer
        values = array("i", steps)

        def reference():
            if len(values) and not 1 <= min(values) <= max(values) <= n:
                bad = min(values) if min(values) < 1 else max(values)
                raise ScheduleError(
                    f"compiled schedule contains process {bad}, outside Πn = {{1..{n}}}"
                )
            return reference_tally(values, n)

        expected = outcome(reference)
        actual = outcome(lambda: CompiledSchedule(n=n, steps=steps).step_counts())
        assert actual == expected


def _writer(automaton, ctx):
    count = 0
    while True:
        count += 1
        automaton.publish("count", count)
        yield WriteOp(("cell", automaton.pid), count)


def _observed_run(n, steps, run):
    automata = {pid: FunctionAutomaton(pid, n, _writer) for pid in range(1, n + 1)}
    simulator = Simulator(n=n, automata=automata)
    error = outcome(lambda: run(simulator, list(steps)))
    registers = simulator.registers
    return {
        "error": error if isinstance(error, tuple) else None,
        "step_index": simulator.step_index,
        "steps_taken": [simulator.steps_taken(pid) for pid in range(1, n + 1)],
        "outputs": [dict(simulator.automaton(pid).outputs) for pid in range(1, n + 1)],
        "registers": sorted(
            (repr(name), registers.resolve(name).value, registers.resolve(name).write_count)
            for name in registers.names()
        ),
    }


class TestBareLoopAccounting:
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), step_lists(n))))
    def test_unknown_pid_matches_the_reference_run(self, shape):
        # The bare loop (run_fast over a raw list) must fail at the first
        # unknown pid with the reference run's message and exact accounting.
        n, steps = shape
        steps = steps[:300]
        bare = _observed_run(n, steps, lambda sim, s: sim.run_fast(s))
        reference = _observed_run(n, steps, lambda sim, s: sim.run(s))
        assert bare == reference
        bad = first_step_outside(steps, n)
        if bad is None:
            assert bare["error"] is None and bare["step_index"] == len(steps)
        else:
            assert bare["error"] == (SimulationError, f"unknown process id {bad[1]}")
            assert bare["step_index"] == bad[0]
