"""Compiled schedules: buffer fidelity, crash metadata, kernel integration."""

from array import array

import pytest

from repro.core.schedule import CompiledSchedule, Schedule
from repro.errors import ConfigurationError, ScheduleError, SimulationError
from repro.runtime.kernel import normalize_source
from repro.scenarios.spec import build_generator

FAMILY_PARAMS = [
    {"schedule": "round-robin", "n": 3},
    {"schedule": "random", "n": 4, "seed": 5},
    {"schedule": "set-timely", "n": 4, "p_set": [1, 2], "q_set": [1, 2, 3], "bound": 3,
     "seed": 7, "crashes": [4]},
    {"schedule": "crash-churn", "n": 5, "seed": 3, "period": 16, "outage": 4},
    {"schedule": "set-timely", "n": 4, "p_set": [1, 2], "q_set": [1, 2, 3], "bound": 3,
     "seed": 9, "crash_steps": {"3": 120}},
]


class TestCompileFidelity:
    # compile(L) == generate(L) == stream() over generated parameters of every
    # seeded family: tests/conformance/test_family_conformance.py.
    @pytest.mark.parametrize("params", FAMILY_PARAMS, ids=lambda p: p["schedule"])
    def test_prefix_round_trips_schedule_with_faulty_hint(self, params):
        length = 300
        compiled = build_generator(params).compile(length)
        assert compiled.faulty == build_generator(params).faulty
        for prefix_length in (0, 100, 150, 300):
            expected = build_generator(params).generate(prefix_length)
            actual = compiled.prefix(prefix_length)
            assert actual == expected

    def test_compile_carries_description_and_length(self):
        generator = build_generator(FAMILY_PARAMS[2])
        compiled = generator.compile(123)
        assert len(compiled) == 123
        assert compiled.description == generator.description

    def test_compile_rejects_negative_length(self):
        with pytest.raises(ConfigurationError):
            build_generator(FAMILY_PARAMS[0]).compile(-1)

    def test_step_counts_match_schedule_counts(self):
        params = FAMILY_PARAMS[1]
        compiled = build_generator(params).compile(500)
        assert compiled.step_counts() == build_generator(params).generate(500).counts()
        # Cached object: a second call returns the identical mapping.
        assert compiled.step_counts() is compiled.step_counts()


class TestCompiledScheduleValidation:
    def test_arbitrary_iterables_are_coerced_to_int_arrays(self):
        compiled = CompiledSchedule(n=3, steps=[1, 2, 3, 1])
        assert isinstance(compiled.steps, array)
        assert compiled.steps.typecode == "i"
        assert list(compiled) == [1, 2, 3, 1]

    def test_out_of_range_steps_rejected(self):
        with pytest.raises(ScheduleError):
            CompiledSchedule(n=2, steps=[1, 3])
        with pytest.raises(ScheduleError):
            CompiledSchedule(n=2, steps=[0, 1])

    def test_crash_metadata_validated_and_normalized(self):
        compiled = CompiledSchedule(n=3, steps=[1, 2], crash_steps={"3": 50})
        assert compiled.crash_steps == {3: 50}
        assert compiled.faulty == frozenset({3})
        assert compiled.crashed_by(49) == frozenset()
        assert compiled.crashed_by(50) == frozenset({3})
        with pytest.raises(ScheduleError):
            CompiledSchedule(n=2, steps=[1], crash_steps={5: 0})
        with pytest.raises(ScheduleError):
            CompiledSchedule(n=2, steps=[1], crash_steps={1: -1})

    def test_prefix_beyond_buffer_raises(self):
        # Regression: a silently truncated prefix would pair the hint computed
        # for the requested length with fewer steps than that length implies.
        compiled = build_generator(FAMILY_PARAMS[0]).compile(100)
        with pytest.raises(ScheduleError, match="exceeds the compiled buffer"):
            compiled.prefix(101)
        assert len(compiled.prefix(100).steps) == 100
        assert len(compiled.prefix().steps) == 100

    def test_zero_message_buffer_prefix(self):
        # Regression: a zero-length buffer (e.g. a distsim timeline reduced
        # before anyone stepped) still yields a coherent empty prefix, and the
        # crash metadata stays queryable.
        compiled = CompiledSchedule(n=3, steps=[], crash_steps={1: 0, 2: 4})
        empty = compiled.prefix()
        assert empty.steps == ()
        assert empty.faulty_hint == frozenset({1})
        assert compiled.crashed_by(4) == frozenset({1, 2})
        with pytest.raises(ScheduleError):
            compiled.prefix(1)


class TestKernelIntegration:
    def test_normalize_source_iterates_the_raw_buffer(self):
        compiled = CompiledSchedule(n=3, steps=[1, 2, 3, 1, 2])
        step_iter, budget = normalize_source(3, compiled, None)
        assert budget == 5
        assert list(step_iter) == [1, 2, 3, 1, 2]

    def test_normalize_source_caps_budget_at_max_steps(self):
        compiled = CompiledSchedule(n=3, steps=[1, 2, 3, 1, 2])
        _, budget = normalize_source(3, compiled, 2)
        assert budget == 2
        _, budget = normalize_source(3, compiled, 50)
        assert budget == 5

    def test_normalize_source_rejects_mismatched_universe(self):
        compiled = CompiledSchedule(n=3, steps=[1, 2, 3])
        with pytest.raises(SimulationError, match="Π3"):
            normalize_source(4, compiled, None)

    def test_simulator_accepts_compiled_schedule(self):
        from repro.runtime.automaton import FunctionAutomaton, WriteOp
        from repro.runtime.simulator import build_simulator

        def program(automaton, ctx):
            count = 0
            while True:
                count += 1
                yield WriteOp(("scratch", automaton.pid), count)

        compiled = CompiledSchedule(n=2, steps=[1, 2, 1, 1])
        simulator = build_simulator(2, lambda pid: FunctionAutomaton(pid, 2, program))
        result = simulator.run_fast(compiled)
        assert result.steps_executed == 4
        assert simulator.steps_taken(1) == 3 and simulator.steps_taken(2) == 1
        assert simulator.registers.peek(("scratch", 1)) == 3
