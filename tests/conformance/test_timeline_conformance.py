"""The distsim engine's resumable loop gives one answer however it is driven.

:meth:`~repro.distsim.engine.TimelineEngine.advance` keeps the whole event
loop's state on the engine, so a timeline advanced in chunks of any size —
a no-op call included — must record the same activation arrays, message
counters and crash indices as one call to the same total.  Inputs range
over every ``dist-*`` family, every latency model and the fault kinds
(loss, partitions, recurring outages and permanent crashes, among them a
crash at an instant the process ticks).  On the same inputs the generator's
compiled buffer must equal the recorded timeline's lowering (prefixes and
faulty hint included), the
report's C-speed time-gap selection must equal a walk over the records, and
its bounds, scanned on the pid array packed once, must equal the scans of
the lowered :class:`~repro.core.schedule.Schedule`.
"""

from array import array
from itertools import islice

from hypothesis import given
from hypothesis import strategies as st

from conformance_support import CONFORMANCE
from repro.core.timeliness import analyze_timeliness
from repro.distsim import (
    MessageStats,
    Timeline,
    TimelineEngine,
    available_latency_models,
    compile_timeline,
    dist_family_names,
    predicted_bound,
    run_timeline,
    timeliness_report,
)
from repro.distsim.reduction import _time_gaps
from repro.errors import ConfigurationError
from repro.scenarios.spec import build_generator

#: Activations per drawn timeline: long enough to reach the fault windows.
LENGTHS = st.integers(0, 600)

_COUNTERS = (
    "sent", "delivered", "dropped_loss", "dropped_partition", "dropped_down",
    "max_latency", "total_latency",
)


def _first_tick(params, pid):
    """The instant of ``pid``'s first recorded tick in the crash-free timeline.

    Crash events draw nothing, so the timeline with a crash of ``pid`` at
    that instant is the same up to it.
    """
    engine = TimelineEngine(build_generator(params).config)
    engine.advance(400)
    for time, step_pid, src in zip(engine.times, engine.pids, engine.srcs):
        if step_pid == pid and not src:
            return time
    return None


@st.composite
def dist_params(draw):
    """Scenario parameters of one distsim workload with drawn faults."""
    n = draw(st.integers(3, 5))
    params = {
        "schedule": draw(st.sampled_from(dist_family_names())),
        "n": n,
        "seed": draw(st.integers(0, 10_000)),
        "latency": draw(st.sampled_from(available_latency_models())),
        "latency_scale": draw(st.integers(1, 4)),
    }
    if draw(st.booleans()):
        params["loss_rate"] = draw(st.sampled_from([0.1, 0.3, 0.6]))
    if draw(st.booleans()):
        start = draw(st.integers(0, 200))
        params["partitions"] = [
            {"start": start, "duration": 150, "period": 500, "groups": [[1, 2], [3]]}
        ]
    if draw(st.booleans()):
        params["outages"] = [
            {"pid": draw(st.integers(1, n)), "start": draw(st.integers(0, 300)),
             "duration": 100, "period": 400}
        ]
    crash = draw(st.sampled_from(["none", "drawn", "first-tick"]))
    victim = draw(st.integers(1, n - 1))
    if crash == "drawn":
        params["crash_times"] = {str(victim): draw(st.integers(0, 800))}
    elif crash == "first-tick":
        # The sticky-failover replicas never tick; its coordinator is n.
        ticker = n if params["schedule"] == "dist-sticky-failover" else victim
        instant = _first_tick(params, ticker)
        if instant is not None:
            params["crash_times"] = {str(ticker): instant}
    return params


def _engine_state(engine):
    return (
        engine.pids, engine.times, engine.srcs, engine.send_times,
        tuple(getattr(engine, name) for name in _COUNTERS),
        engine.crash_index,
    )


@CONFORMANCE
@given(params=dist_params(), length=LENGTHS, data=st.data())
def test_chunked_advance_equals_one_call(params, length, data):
    config = build_generator(params).config
    whole = TimelineEngine(config)
    recorded = whole.advance(length)
    chunked = TimelineEngine(config)
    reached = 0
    while reached < length:
        target = reached + data.draw(st.integers(0, 97), label="chunk")
        reached = min(target, length)
        if chunked.advance(reached) < reached:
            break
    assert chunked.advance(length) == recorded
    assert _engine_state(chunked) == _engine_state(whole)


@CONFORMANCE
@given(params=dist_params(), length=LENGTHS)
def test_generator_compile_equals_the_timeline_lowering(params, length):
    generator = build_generator(params)
    try:
        timeline = run_timeline(generator, length)
    except ConfigurationError as error:  # every process crashed before `length`
        assert "no alive process left" in str(error)
        return
    compiled = generator.compile(length)
    lowered = compile_timeline(timeline)
    assert compiled.steps.tobytes() == lowered.steps.tobytes()
    assert (compiled.n, dict(compiled.crash_steps), compiled.description) == (
        lowered.n, dict(lowered.crash_steps), lowered.description
    )
    assert tuple(islice(generator.stream(), length)) == timeline.step_pids()
    # Prefixes and the faulty hint follow every other generator's conventions.
    for prefix_length in sorted({0, length // 2, length}):
        expected = build_generator(params).generate(prefix_length)
        actual = lowered.prefix(prefix_length)
        assert (actual.steps, actual.faulty_hint) == (expected.steps, expected.faulty_hint)
    assert lowered.faulty == generator.faulty


def _reference_time_gaps(timeline, p_set, q_set):
    """``_time_gaps`` as a walk over the timeline's records."""
    p_times = [record.time for record in timeline.records if record.pid in p_set]
    q_times = [record.time for record in timeline.records if record.pid in q_set]
    duration = timeline.records[-1].time if timeline.records else 0
    if p_times:
        gaps = [p_times[0] - 0, duration - p_times[-1]]
        gaps.extend(b - a for a, b in zip(p_times, p_times[1:]))
        max_p_gap = max(gaps)
    else:
        max_p_gap = duration
    if len(q_times) >= 2:
        min_q_gap = min(b - a for a, b in zip(q_times, q_times[1:]))
    else:
        min_q_gap = 0
    return max_p_gap, min_q_gap


def _subsets(n):
    return st.frozensets(st.integers(1, n), min_size=1, max_size=n)


@CONFORMANCE
@given(params=dist_params(), length=LENGTHS, data=st.data())
def test_time_gaps_equal_a_walk_over_the_records(params, length, data):
    try:
        timeline = run_timeline(build_generator(params), length)
    except ConfigurationError as error:
        assert "no alive process left" in str(error)
        return
    p_set = data.draw(_subsets(timeline.n), label="P")
    q_set = data.draw(_subsets(timeline.n), label="Q")
    assert _time_gaps(timeline, p_set, q_set) == _reference_time_gaps(
        timeline, p_set, q_set
    )


@st.composite
def synthetic_timelines(draw):
    """A hand-built timeline, over ``Πn`` with ``n`` on both sides of 255."""
    n = draw(st.sampled_from([3, 255, 300]))
    pids = draw(st.lists(st.integers(1, n), max_size=60))
    gaps = draw(st.lists(st.integers(0, 9), min_size=len(pids), max_size=len(pids)))
    times, now = [], 0
    for gap in gaps:
        now += gap
        times.append(now)
    stats = MessageStats(0, 0, 0, 0, 0, 0, 0.0)
    return Timeline(
        n=n, pids=array("i", pids), times=array("q", times),
        srcs=array("i", [0] * len(pids)), send_times=array("q", [-1] * len(pids)),
        crash_steps={}, stats=stats, description="synthetic",
    )


def _members(timeline):
    """Member sets of ``timeline``'s ``Πn``, biased to processes that step."""
    return st.frozensets(
        st.sampled_from(sorted(set(timeline.pids)) or [1]) | st.integers(1, timeline.n),
        min_size=1, max_size=6,
    )


@CONFORMANCE
@given(timeline=synthetic_timelines(), data=st.data())
def test_time_gaps_select_members_on_both_sides_of_the_byte_range(timeline, data):
    p_set = data.draw(_members(timeline), label="P")
    q_set = data.draw(_members(timeline), label="Q")
    assert _time_gaps(timeline, p_set, q_set) == _reference_time_gaps(
        timeline, p_set, q_set
    )


@CONFORMANCE
@given(timeline=synthetic_timelines(), data=st.data())
def test_report_bounds_equal_scans_of_the_lowered_schedule(timeline, data):
    p_set = data.draw(_members(timeline), label="P")
    q_set = data.draw(_members(timeline), label="Q")
    report = timeliness_report(timeline, p_set, q_set)
    schedule = compile_timeline(timeline).prefix()
    witness = analyze_timeliness(schedule, p_set, q_set)
    assert (report.set_bound, report.set_saturated, report.set_evidence_ratio) == (
        witness.minimal_bound, witness.saturated, witness.evidence_ratio()
    )
    assert report.member_bounds == {
        pid: analyze_timeliness(schedule, {pid}, q_set).minimal_bound for pid in sorted(p_set)
    }
    gaps = _reference_time_gaps(timeline, p_set, q_set)
    assert (report.max_p_gap, report.min_q_gap) == gaps
    assert report.predicted == predicted_bound(*gaps, witness.total_q_steps)
