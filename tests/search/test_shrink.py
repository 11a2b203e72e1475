"""Shrinker invariants: still failing, prefix-consistent, deterministic."""

import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.schedule import CompiledSchedule
from repro.errors import ConfigurationError, ScheduleError
from repro.search import (
    make_recipe,
    make_property,
    realize,
    rebuild_candidate,
    shrink_schedule,
)

IN_MODEL = {
    "schedule": "set-timely",
    "n": 4,
    "t": 2,
    "k": 2,
    "p_set": [1, 2],
    "q_set": [1, 2, 3],
    "bound": 3,
    "seed": 0,
}


def random_compiled(n=4, length=240, seed=9, crash_steps=None):
    rng = random.Random(seed)
    return CompiledSchedule(
        n=n,
        steps=array("i", [rng.randint(1, n) for _ in range(length)]),
        crash_steps=crash_steps or {},
    )


def count_of(compiled, pid):
    return sum(1 for step in compiled.steps if step == pid)


class TestDdminCore:
    def test_minimizes_to_the_predicate_core(self):
        compiled = random_compiled()
        result = shrink_schedule(
            compiled, lambda c: count_of(c, 1) >= 5, max_evaluations=2000
        )
        # The minimal schedule satisfying "at least five steps of process 1"
        # is exactly five steps, all of process 1.
        assert result.shrunk_length == 5
        assert all(pid == 1 for pid in result.schedule.steps)
        assert result.original_length == 240
        assert result.removed_steps == 235

    def test_shrunk_schedule_still_fails_the_same_property(self):
        # Alternating silences keep the detector churning past mid-horizon, so
        # the near-miss predicate (stabilization-delay fitness at threshold
        # 0.5 with every correct process producing output) holds — and must
        # keep holding on the minimal reproducer.
        compiled = realize(
            make_recipe(
                IN_MODEL,
                1200,
                [
                    {"op": "silence", "pids": [1, 2], "start": 200, "length": 250},
                    {"op": "silence", "pids": [3, 4], "start": 500, "length": 300},
                    {"op": "silence", "pids": [1, 2], "start": 850, "length": 350},
                ],
            )
        )
        prop = make_property("k-anti-omega-convergence", {"n": 4, "t": 2, "k": 2})

        def predicate(candidate):
            verdict = prop.screen(candidate, 6)
            return verdict.fitness >= 0.5 and verdict.details["all_correct_produced"]

        assert predicate(compiled)
        result = shrink_schedule(compiled, predicate, max_evaluations=80)
        assert predicate(result.schedule)
        assert result.shrunk_length <= result.original_length

    def test_rejects_an_input_that_does_not_fail(self):
        with pytest.raises(ConfigurationError):
            shrink_schedule(random_compiled(), lambda c: False)

    def test_respects_the_evaluation_budget(self):
        calls = 0

        def predicate(candidate):
            nonlocal calls
            calls += 1
            return count_of(candidate, 1) >= 3

        shrink_schedule(random_compiled(), predicate, max_evaluations=17)
        assert calls <= 17


class TestPrefixConsistency:
    def test_crash_metadata_never_contradicts_the_buffer(self):
        compiled = realize(
            make_recipe(IN_MODEL, 600, [{"op": "crash", "pid": 3, "at": 150}])
        )
        result = shrink_schedule(
            compiled, lambda c: count_of(c, 1) >= 4, max_evaluations=500
        )
        shrunk = result.schedule
        steps = list(shrunk.steps)
        for pid, crash_at in shrunk.crash_steps.items():
            assert all(step != pid for step in steps[crash_at:])
        # The prefix constructor must accept it (faulty hint consistency).
        prefix = shrunk.prefix()
        assert prefix.n == shrunk.n

    def test_faulty_set_preserved_unless_a_crash_is_dropped(self):
        compiled = random_compiled(crash_steps={3: 0})
        result = shrink_schedule(
            compiled,
            lambda c: count_of(c, 1) >= 3 and 3 in c.faulty,
            max_evaluations=800,
        )
        assert result.schedule.faulty == frozenset({3})
        assert result.removed_crashes == 0

    def test_droppable_crashes_are_dropped(self):
        compiled = random_compiled(crash_steps={3: 0, 4: 0})
        result = shrink_schedule(
            compiled, lambda c: count_of(c, 1) >= 3, max_evaluations=800
        )
        # Neither crash matters to the predicate, so the shrinker removes both.
        assert result.schedule.faulty == frozenset()
        assert result.removed_crashes == 2


class TestDeterminism:
    def test_same_input_same_minimal_reproducer(self):
        compiled = realize(
            make_recipe(
                IN_MODEL,
                800,
                [
                    {"op": "burst", "pid": 4, "start": 200, "length": 300},
                    {"op": "crash", "pid": 3, "at": 400},
                ],
            )
        )

        def predicate(candidate):
            return count_of(candidate, 4) >= 10

        first = shrink_schedule(compiled, predicate, max_evaluations=300)
        second = shrink_schedule(compiled, predicate, max_evaluations=300)
        assert list(first.schedule.steps) == list(second.schedule.steps)
        assert first.schedule.crash_steps == second.schedule.crash_steps
        assert first.evaluations == second.evaluations
        assert first.summary() == second.summary()


class TestRebuildCandidate:
    def test_crash_indices_recomputed_from_last_occurrence(self):
        candidate = rebuild_candidate(4, [1, 3, 2, 3, 1], [3], "test")
        assert candidate.crash_steps == {3: 4}

    def test_absent_faulty_process_crashes_at_zero(self):
        candidate = rebuild_candidate(4, [1, 2, 1], [3], "test")
        assert candidate.crash_steps == {3: 0}
        assert candidate.faulty == frozenset({3})


def reference_rebuild_candidate(n, steps, faulty, description):
    """``rebuild_candidate`` as one walk recording every process's last step."""
    last_seen = {}
    for index, pid in enumerate(steps):
        last_seen[pid] = index
    crash_steps = {
        pid: (last_seen[pid] + 1 if pid in last_seen else 0) for pid in faulty
    }
    return CompiledSchedule(
        n=n, steps=array("i", steps), crash_steps=crash_steps, description=description
    )


def _rebuilt(rebuild, n, steps, faulty):
    """Buffer, crash steps and description of a rebuild, or its error text."""
    try:
        candidate = rebuild(n, steps, faulty, "trial")
    except ScheduleError as raised:
        return str(raised)
    return candidate.steps.tobytes(), candidate.crash_steps, candidate.description


class TestRebuildMatchesTheReference:
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                # Out-of-range steps and faulty ids exercise the error texts.
                st.lists(st.integers(0, n + 1), max_size=40),
                st.lists(st.integers(0, n + 1), max_size=n + 1),
            )
        ),
        st.sampled_from([list, tuple, lambda steps: array("i", steps)]),
    )
    def test_crash_indices_and_errors_match(self, case, container):
        n, steps, faulty = case
        assert _rebuilt(rebuild_candidate, n, container(steps), faulty) == _rebuilt(
            reference_rebuild_candidate, n, list(steps), faulty
        )

    def test_rebuild_copies_the_callers_buffer(self):
        steps = array("i", [1, 2, 3, 1])
        candidate = rebuild_candidate(4, steps, [1], "test")
        steps[0] = 4
        assert list(candidate.steps) == [1, 2, 3, 1]
        assert candidate.crash_steps == {1: 4}
