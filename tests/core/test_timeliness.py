"""Unit tests for set timeliness analysis (repro.core.timeliness)."""

import pytest

from repro.core.schedule import Schedule
from repro.core.timeliness import (
    analyze_timeliness,
    best_timeliness_pair,
    find_violating_window,
    is_timely,
    minimal_timeliness_bound,
    p_free_segments,
    process_timely,
)
from repro.errors import VerificationError


def schedule(*steps, n=4):
    return Schedule(steps=tuple(steps), n=n)


class TestPFreeSegments:
    def test_segments_and_q_counts(self):
        s = schedule(1, 2, 2, 3, 1, 2, n=3)
        segments = p_free_segments(s, {1}, {2})
        assert [(seg.start, seg.end, seg.q_steps) for seg in segments] == [(1, 4, 2), (5, 6, 1)]

    def test_whole_schedule_p_free(self):
        s = schedule(2, 2, 3, n=3)
        segments = p_free_segments(s, {1}, {2})
        assert len(segments) == 1
        assert segments[0].q_steps == 2
        assert segments[0].length == 3

    def test_no_p_free_segment(self):
        s = schedule(1, 1, 1, n=3)
        assert p_free_segments(s, {1}, {2}) == []


class TestMinimalBound:
    def test_alternating_schedule_bound_two(self):
        s = Schedule(steps=(1, 2) * 10, n=2)
        assert minimal_timeliness_bound(s, {1}, {2}) == 2

    def test_p_never_steps_gives_saturated_bound(self):
        s = schedule(2, 2, 2, n=3)
        witness = analyze_timeliness(s, {1}, {2})
        assert witness.minimal_bound == 4
        assert witness.saturated
        assert witness.evidence_ratio() == 1.0

    def test_q_subset_of_p_gives_bound_one(self):
        s = schedule(1, 2, 1, 2, n=3)
        assert minimal_timeliness_bound(s, {1, 2}, {2}) == 1

    def test_empty_schedule_bound_one(self):
        assert minimal_timeliness_bound(Schedule.empty(3), {1}, {2}) == 1

    def test_bound_matches_worst_gap(self):
        # Gaps of q-steps between p-steps: 3, then 1.
        s = schedule(1, 2, 2, 2, 1, 2, 1, n=3)
        witness = analyze_timeliness(s, {1}, {2})
        assert witness.minimal_bound == 4
        assert witness.worst_segment is not None
        assert witness.worst_segment.q_steps == 3

    def test_empty_sets_rejected(self):
        s = schedule(1, 2, n=3)
        with pytest.raises(VerificationError):
            analyze_timeliness(s, set(), {2})
        with pytest.raises(VerificationError):
            analyze_timeliness(s, {1}, set())


class TestIsTimely:
    def test_given_bound_accepted_and_rejected(self):
        s = schedule(1, 2, 2, 2, 1, n=3)
        assert is_timely(s, {1}, {2}, bound=4)
        assert not is_timely(s, {1}, {2}, bound=3)

    def test_bound_below_one_rejected(self):
        with pytest.raises(VerificationError):
            is_timely(schedule(1, n=2), {1}, {2}, bound=0)

    def test_process_timely_is_singleton_case(self):
        s = Schedule(steps=(1, 2) * 5, n=2)
        assert process_timely(s, 1, 2, bound=2)
        assert not process_timely(s, 2, 1, bound=1)


class TestViolatingWindow:
    def test_window_found_for_too_small_bound(self):
        s = schedule(1, 2, 2, 2, 1, n=3)
        window = find_violating_window(s, {1}, {2}, bound=3)
        assert window == (1, 4)

    def test_no_window_for_valid_bound(self):
        s = schedule(1, 2, 2, 2, 1, n=3)
        assert find_violating_window(s, {1}, {2}, bound=4) is None

    def test_window_contents_have_no_p_step(self):
        s = schedule(3, 2, 2, 3, 2, 1, 2, 2, n=3)
        window = find_violating_window(s, {1}, {2}, bound=3)
        assert window is not None
        start, end = window
        assert 1 not in s.steps[start:end]
        assert s.steps[start:end].count(2) >= 3


class TestWitnessSemantics:
    def test_is_timely_with_bound_consistency(self):
        s = schedule(1, 2, 2, 1, 2, 2, 2, 1, n=3)
        witness = analyze_timeliness(s, {1}, {2})
        assert witness.is_timely_with_bound(witness.minimal_bound)
        assert not witness.is_timely_with_bound(witness.minimal_bound - 1)

    def test_union_of_p_never_increases_bound(self):
        s = schedule(1, 2, 3, 2, 2, 1, 3, 2, n=3)
        bound_single = analyze_timeliness(s, {1}, {2}).minimal_bound
        bound_union = analyze_timeliness(s, {1, 3}, {2}).minimal_bound
        assert bound_union <= bound_single

    def test_shrinking_q_never_increases_bound(self):
        s = schedule(1, 2, 3, 2, 2, 1, 3, 2, n=3)
        bound_full = analyze_timeliness(s, {1}, {2, 3}).minimal_bound
        bound_sub = analyze_timeliness(s, {1}, {2}).minimal_bound
        assert bound_sub <= bound_full


class TestBestPair:
    def test_locates_the_worst_segment_of_the_best_pair(self):
        # P={1} leaves the segment 2 2 3 3 3 (three Q-steps of {3}); P={2}
        # leaves 3 3 3 1 (three); P={3} leaves 1 2 2 (two Q-steps of {2}).
        s = schedule(1, 2, 2, 3, 3, 3, 1, 2, n=3)
        pairs = [({1}, {3}), ({2}, {3}), ({3}, {2})]
        index, witness = best_timeliness_pair(s, pairs)
        assert index == 2
        assert witness == analyze_timeliness(s, {3}, {2})
        assert (witness.worst_segment.start, witness.worst_segment.end) == (0, 3)

    def test_ties_keep_the_first_pair(self):
        s = schedule(1, 2, 1, 2, n=2)
        index, witness = best_timeliness_pair(s, [({1}, {2}), ({2}, {1})])
        assert index == 0
        assert witness.p_set == frozenset({1})

    def test_q_inside_p_and_ids_outside_the_universe(self):
        s = schedule(2, 2, 3, 2, n=3)
        pairs = [({1, 7}, {2, 9}), ({2}, {2})]
        assert best_timeliness_pair(s, pairs) == (1, analyze_timeliness(s, {2}, {2}))
        assert best_timeliness_pair(s, pairs[:1])[1] == analyze_timeliness(s, {1, 7}, {2, 9})

    def test_empty_schedule(self):
        index, witness = best_timeliness_pair(schedule(n=3), [({1}, {2})])
        assert (index, witness.minimal_bound, witness.worst_segment) == (0, 1, None)

    def test_large_universe_matches_per_pair_analysis(self):
        s = Schedule(steps=(300, 1, 300, 300, 2, 300), n=300)
        pairs = [({1}, {300}), ({2}, {300}), ({1, 2}, {300})]
        assert best_timeliness_pair(s, pairs) == (2, analyze_timeliness(s, {1, 2}, {300}))

    def test_empty_inputs_rejected(self):
        s = schedule(1, 2, n=2)
        with pytest.raises(VerificationError):
            best_timeliness_pair(s, [])
        with pytest.raises(VerificationError):
            best_timeliness_pair(s, [({1}, {2}), (set(), {2})])
        with pytest.raises(VerificationError):
            best_timeliness_pair(s, [({1}, set())])
