"""Property-based tests for set timeliness (hypothesis).

The central invariant: the analytically computed minimal bound must coincide
with the brute-force definition ("every window with i Q-steps contains a
P-step") on arbitrary schedules and arbitrary non-empty sets.
"""

from __future__ import annotations

from array import array
from typing import FrozenSet, List, Tuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.schedule import CompiledSchedule, Schedule
from repro.core.systems import SetTimelinessSystem, SystemWitness
from repro.core.timeliness import (
    PFreeSegment,
    TimelinessWitness,
    analyze_timeliness,
    best_timeliness_pair,
    best_timeliness_steps,
    is_timely,
)
from repro.errors import ConfigurationError, VerificationError
from repro.search import certify
from repro.core.observations import observation_2, observation_3


N = 4


def schedules(min_size=0, max_size=60):
    return st.lists(st.integers(1, N), min_size=min_size, max_size=max_size).map(
        lambda steps: Schedule(steps=tuple(steps), n=N)
    )


def bursty_schedules(max_runs=20):
    """Schedules made of runs of one process, long P-free stretches included."""
    runs = st.lists(st.tuples(st.integers(1, N), st.integers(1, 12)), max_size=max_runs)
    return runs.map(
        lambda runs: Schedule(steps=tuple(p for p, size in runs for _ in range(size)), n=N)
    )


def nonempty_subsets():
    return st.sets(st.integers(1, N), min_size=1, max_size=N).map(frozenset)


def brute_force_holds(schedule: Schedule, p: FrozenSet[int], q: FrozenSet[int], bound: int) -> bool:
    """Literal Definition 1: every window with `bound` Q-steps has a P-step."""
    steps = schedule.steps
    for start in range(len(steps)):
        q_seen = 0
        p_seen = False
        for end in range(start, len(steps)):
            if steps[end] in p:
                p_seen = True
            if steps[end] in q:
                q_seen += 1
            if q_seen >= bound:
                if not p_seen:
                    return False
                break
    return True


@given(schedules(), nonempty_subsets(), nonempty_subsets())
def test_minimal_bound_matches_brute_force(schedule, p_set, q_set):
    bound = analyze_timeliness(schedule, p_set, q_set).minimal_bound
    assert brute_force_holds(schedule, p_set, q_set, bound)
    if bound > 1:
        assert not brute_force_holds(schedule, p_set, q_set, bound - 1)


@given(schedules(), nonempty_subsets(), nonempty_subsets())
def test_bound_never_exceeds_saturation(schedule, p_set, q_set):
    witness = analyze_timeliness(schedule, p_set, q_set)
    assert 1 <= witness.minimal_bound <= witness.total_q_steps + 1


@given(schedules(), nonempty_subsets(), nonempty_subsets(), nonempty_subsets(), nonempty_subsets())
def test_observation_2_union(schedule, p1, q1, p2, q2):
    assert observation_2(schedule, p1, q1, p2, q2)


@given(schedules(), nonempty_subsets(), nonempty_subsets(), st.sets(st.integers(1, N), max_size=N))
def test_observation_3_monotonicity(schedule, p_set, q_set, extra):
    p_superset = frozenset(p_set) | frozenset(extra)
    q_subset = frozenset(q_set) - frozenset(extra)
    if not q_subset:
        q_subset = frozenset({min(q_set)})
        if not q_subset <= frozenset(q_set):
            return
    assert observation_3(schedule, p_set, q_set, p_superset, q_subset)


@given(schedules(), nonempty_subsets(), nonempty_subsets(), st.integers(1, 10))
def test_is_timely_monotone_in_bound(schedule, p_set, q_set, bound):
    if is_timely(schedule, p_set, q_set, bound):
        assert is_timely(schedule, p_set, q_set, bound + 1)


@given(schedules(max_size=40), schedules(max_size=40), nonempty_subsets(), nonempty_subsets())
def test_concatenation_bound_bounded_by_parts(left, right, p_set, q_set):
    """The bound of S·S' is at most (bound of S) + (bound of S') when both parts
    end/start cleanly — more loosely, it never exceeds their sum plus one window
    that straddles the seam, which is itself bounded by the two bounds' sum."""
    combined = left + right
    bound_left = analyze_timeliness(left, p_set, q_set).minimal_bound
    bound_right = analyze_timeliness(right, p_set, q_set).minimal_bound
    bound_combined = analyze_timeliness(combined, p_set, q_set).minimal_bound
    assert bound_combined <= bound_left + bound_right


def segment_scan_oracle(schedule, p_set, q_set) -> TimelinessWitness:
    """An independent per-step analysis: split into maximal P-free segments.

    Kept here, apart from the library's bytes scan, as the reference both
    public analyses must reproduce exactly — bound, totals and the first
    worst segment.
    """
    p_frozen, q_frozen = frozenset(p_set), frozenset(q_set)
    segments = []
    start, q_count = None, 0
    for index, step in enumerate(schedule.steps):
        if step in p_frozen:
            if start is not None:
                segments.append(PFreeSegment(start=start, end=index, q_steps=q_count))
                start, q_count = None, 0
        else:
            if start is None:
                start = index
            if step in q_frozen:
                q_count += 1
    if start is not None:
        segments.append(PFreeSegment(start=start, end=len(schedule.steps), q_steps=q_count))
    worst = None
    for segment in segments:
        if worst is None or segment.q_steps > worst.q_steps:
            worst = segment
    worst_q = worst.q_steps if worst is not None else 0
    return TimelinessWitness(
        p_set=p_frozen,
        q_set=q_frozen,
        minimal_bound=worst_q + 1,
        total_q_steps=sum(1 for step in schedule.steps if step in q_frozen),
        worst_segment=worst if worst_q > 0 else None,
        schedule_length=len(schedule.steps),
    )


def first_best_by_oracle(schedule, pairs):
    """The first pair with the smallest bound, by one oracle analysis per pair."""
    witnesses = [segment_scan_oracle(schedule, p_set, q_set) for p_set, q_set in pairs]
    bounds = [witness.minimal_bound for witness in witnesses]
    best = bounds.index(min(bounds))
    return best, witnesses[best]


# Beyond the strategies: a schedule too wide for the bytes scan, sets naming
# ids outside Πn (they never step), and the empty schedule.
WIDE = Schedule(steps=(1, 300, 2, 300, 300, 299, 1, 300), n=300)
# A system over more than 255 processes whose steps all fit in a byte packs.
WIDE_NARROW_STEPS = Schedule(steps=(1, 255, 2, 255, 255, 7, 1, 255), n=300)
OUTSIDE = Schedule(steps=(1, 2, 3, 2, 4, 2), n=N)
EMPTY = Schedule(steps=(), n=N)


@given(
    st.one_of(schedules(), bursty_schedules()), nonempty_subsets(), nonempty_subsets()
)
@example(WIDE, frozenset({1}), frozenset({300}))
@example(WIDE, frozenset({2, 299}), frozenset({1, 300}))
@example(OUTSIDE, frozenset({0, 3}), frozenset({2, 9}))
@example(OUTSIDE, frozenset({7}), frozenset({2}))
@example(EMPTY, frozenset({1}), frozenset({2}))
def test_analysis_matches_segment_scan_oracle(schedule, p_set, q_set):
    assert analyze_timeliness(schedule, p_set, q_set) == segment_scan_oracle(
        schedule, p_set, q_set
    )


@given(
    st.one_of(schedules(), bursty_schedules()),
    st.lists(st.tuples(nonempty_subsets(), nonempty_subsets()), min_size=1, max_size=8),
)
@example(WIDE, [(frozenset({2}), frozenset({300})), (frozenset({300}), frozenset({1}))])
@example(
    WIDE_NARROW_STEPS,
    [(frozenset({300}), frozenset({255, 299})), (frozenset({2, 300}), frozenset({1, 255}))],
)
@example(OUTSIDE, [(frozenset({9}), frozenset({2})), (frozenset({0, 3}), frozenset({2, 5}))])
@example(EMPTY, [(frozenset({1}), frozenset({2})), (frozenset({3}), frozenset({4}))])
def test_best_pair_matches_per_pair_analysis(schedule, pairs):
    assert best_timeliness_pair(schedule, pairs) == first_best_by_oracle(schedule, pairs)


@given(
    st.one_of(schedules(), bursty_schedules()),
    st.lists(st.tuples(nonempty_subsets(), nonempty_subsets()), min_size=1, max_size=8),
)
@example(OUTSIDE, [({9}, [2]), ((0, 3), {2, 5})])
@example(EMPTY, [(frozenset({1}), frozenset({2}))])
@example(WIDE, [({300}, {1, 300}), ({2}, {299})])
def test_steps_entry_matches_the_schedule_entry_on_every_buffer_kind(schedule, pairs):
    expected = first_best_by_oracle(schedule, pairs)
    assert best_timeliness_pair(schedule, pairs) == expected
    buffers = [schedule.steps, list(schedule.steps), array("i", schedule.steps)]
    if schedule.n <= 255:
        buffers.append(bytes(schedule.steps))
    for steps in buffers:
        assert best_timeliness_steps(steps, schedule.n, pairs) == expected


def test_steps_entry_rejects_empty_pairs_and_sets():
    for steps in (b"\1", array("i", [300])):
        with pytest.raises(VerificationError, match="no \\(P, Q\\) pair"):
            best_timeliness_steps(steps, 300, [])
        with pytest.raises(VerificationError, match="non-empty set Q"):
            best_timeliness_steps(steps, 300, [({1}, set())])


@st.composite
def compiled_prefixes(draw):
    """A compiled buffer over a small Πn, witness sizes and a prefix cap."""
    n = draw(st.integers(2, 6))
    steps = draw(st.lists(st.integers(1, n), min_size=1, max_size=60))
    j = draw(st.integers(1, n))
    i = draw(st.integers(1, j))
    crash_steps = draw(
        st.dictionaries(st.integers(1, n), st.integers(0, len(steps) + 2), max_size=n - 1)
    )
    prefix = draw(st.one_of(st.none(), st.integers(-2, len(steps) + 5)))
    compiled = CompiledSchedule(n=n, steps=array("i", steps), crash_steps=crash_steps)
    return compiled, i, j, prefix


# Over more than 255 processes a buffer with a wider pid takes the segment
# scan; the sizes keep the pair count small (one pair, and 300 pairs).
WIDE_COMPILED = CompiledSchedule(n=300, steps=array("i", [1, 300, 2, 300, 300, 299, 1, 300]))


@given(compiled_prefixes())
@example((WIDE_COMPILED, 300, 300, None))
@example((WIDE_COMPILED, 299, 300, 5))
@example((WIDE_COMPILED, 299, 300, 1))
@example((WIDE_COMPILED, 299, 300, 0))
def test_certify_witness_matches_the_schedule_path(case):
    compiled, i, j, prefix = case
    length = len(compiled) if prefix is None else min(prefix, len(compiled))
    if length < 1:
        with pytest.raises(ConfigurationError, match="empty schedule prefix"):
            certify.best_witness(compiled, i, j, prefix)
        return
    system = SetTimelinessSystem(i=i, j=j, n=compiled.n)
    schedule = compiled.prefix(length)
    witness = certify.best_witness(compiled, i, j, prefix)
    assert witness == system.best_witness(schedule)
    pairs = list(system.candidate_pairs())
    index, expected = first_best_by_oracle(schedule, pairs)
    assert witness == SystemWitness(p_set=pairs[index][0], q_set=pairs[index][1], witness=expected)


def test_compiled_system_witness_checks_the_universe():
    system = SetTimelinessSystem(i=1, j=2, n=4)
    with pytest.raises(ConfigurationError, match="schedule over Π5"):
        system.best_witness(CompiledSchedule(n=5, steps=array("i", [1, 2])))
