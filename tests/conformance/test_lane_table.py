"""The lane table: every way of running a system over a schedule is the reference.

A run in the paper is ``(I, S, A)``: one shared-memory operation per step of
the schedule.  The reference here is the plainest executor of that model: a
fresh replica built with ``prebind=False`` (name-addressed operations)
running :meth:`~repro.runtime.simulator.Simulator.run` (one
:meth:`~repro.runtime.simulator.Simulator.step` per pid, every observer after
every step) over the schedule's per-step stream.
Each lane is one row ``name -> run(setup, case) -> observable``, and for
drawn setups and schedules (``conformance_support``) every lane must leave
what the reference leaves: outputs and their versions, tracker change lists,
register values, counts and owners, per-process step counts, halting and the
step index, and, for lanes recording a trace, the reference trace.  A run
that raises (a single-writer violation, a pid outside ``Πn``, a strict step
after halting) must raise the same type and text, at the same step, leaving
the same state.

A lane runs only the cases it ``takes``: compiled buffers hold no stray
pid, only ``dist-*`` families have a timeline to replay, and only setups
running Figure 2 have the recomputing reference.  Only Figure 2 can
resume mid-run, so other setups snapshot before their first step.

Drawn runs check every lane in one test per setup kind; each lane on each
hand-pinned run (``PINNED``) is a test of its own.
"""

from contextlib import suppress
from functools import lru_cache
from typing import Callable, NamedTuple

import pytest
from hypothesis import given

from conformance_support import (
    CONFORMANCE,
    LaneCase,
    agreement_setup,
    figure2_setup,
    function_setup,
    lane_runs,
    observable_state,
    pinned_case,
    pinned_family_case,
)
from repro.agreement.kset import DECISION
from repro.distsim import compile_timeline, run_timeline
from repro.errors import ReproError
from repro.failure_detectors.base import FD_OUTPUT, LEADER, WINNER_SET
from repro.runtime.observers import OutputTracker
from repro.scenarios.spec import build_generator


def _attach(simulator, trackers):
    for tracker in trackers:
        simulator.add_observer(tracker)


def _observe(simulator, trackers, *actions):
    """Run ``actions`` in order up to the first raise; what the run left."""
    raised = None
    try:
        for action in actions:
            action()
    except ReproError as error:
        raised = (type(error).__name__, str(error))
    return {**observable_state(simulator, trackers), "raised": raised}


def _tracked(setup, case, prebind=True, recompute=False):
    """A fresh replica with the case's trackers attached from the start."""
    simulator = setup.build(prebind, recompute)
    trackers = [OutputTracker(key=key) for key in case.keys]
    _attach(simulator, trackers)
    return simulator, trackers


def _stepwise(simulator, steps):
    for pid in steps:
        simulator.step(pid)


def _capped(run, source, steps):
    """``run(source, max_steps=steps)``; no call for no steps (a zero budget raises)."""
    if steps:
        run(source, max_steps=steps)


def reference(setup, case: LaneCase, attach_at=0, recompute=False):
    """The unbound reference run; trackers attach after ``attach_at`` steps."""
    simulator = setup.build(False, recompute)
    trackers = [OutputTracker(key=key) for key in case.keys]
    stream = case.stream()
    return _observe(
        simulator,
        trackers,
        lambda: _capped(simulator.run, stream, attach_at),
        lambda: _attach(simulator, trackers),
        lambda: _capped(simulator.run, stream, len(case.steps) - attach_at),
    )


def _whole(runner="run_fast", prebind=True, source="compiled", tracked=True):
    """A lane running the whole schedule in one ``run`` or ``run_fast`` call."""

    def run(setup, case):
        if tracked:
            simulator, trackers = _tracked(setup, case, prebind)
        else:
            simulator, trackers = setup.build(prebind), []
        steps = case.steps
        schedule = {
            "compiled": case.compiled,
            "array": steps,
            "list": list(steps),
            "one-shot": (pid for pid in steps),
        }[source]
        # A one-shot iterable with a budget is consumed lazily.
        budget = len(steps) if source == "one-shot" and len(steps) else None
        return _observe(
            simulator, trackers,
            lambda: getattr(simulator, runner)(schedule, max_steps=budget),
        )

    return run


def _split(setup, case):
    """Trackers attach after an observer-free bare segment (the buffer capped
    by ``max_steps``); then the reference run, the bare loop over a raw array
    and single steps, each from where the last stopped (mid-collect too)."""
    simulator = setup.build(True)
    trackers = [OutputTracker(key=key) for key in case.keys]
    first, second, third = case.cuts
    steps = case.steps
    return _observe(
        simulator,
        trackers,
        lambda: _capped(simulator.run_fast, case.buffer(), first),
        lambda: _attach(simulator, trackers),
        lambda: simulator.run(list(steps[first:second])),
        lambda: simulator.run_fast(steps[second:third]),
        lambda: _stepwise(simulator, steps[third:]),
    )


def _stopped(setup, case):
    """A stop condition ends a tracked reference run at a cut; two bare runs finish it."""
    simulator, trackers = _tracked(setup, case)
    stop_at = max(case.cuts[1], 1)
    rest = max(case.cuts[2], stop_at)
    steps = case.steps
    return _observe(
        simulator,
        trackers,
        lambda: simulator.run(steps, stop_condition=lambda step, sim: step == stop_at),
        lambda: simulator.run_fast(steps[stop_at:rest]),
        lambda: simulator.run_fast(steps[rest:]),
    )


def _segments(setup, case):
    """One iterator over the schedule, consumed by one tracked ``run`` per
    stretch between the cuts; each call's ``executed_schedule`` is its own
    steps, so the calls' schedules concatenate to the trace."""
    simulator, trackers = _tracked(setup, case)
    stream = iter(case.steps)
    bounds = (0, *case.cuts, len(case.steps))
    executed = []

    def segment(start, stop):
        if stop > start:
            result = simulator.run(stream, max_steps=stop - start)
            executed.extend(result.executed_schedule.steps)

    observed = _observe(
        simulator,
        trackers,
        *(lambda start=start, stop=stop: segment(start, stop)
          for start, stop in zip(bounds, bounds[1:])),
    )
    trace = list(observed["trace"])
    # A call that raised returns no schedule: its steps are the trace's tail.
    assert trace[: len(executed)] == executed
    assert observed["raised"] is not None or len(trace) == len(executed)
    return observed


def _detour(simulator, case):
    # A detour may end in a raise; the replica must come back from that too.
    with suppress(ReproError):
        simulator.run_fast(case.detour)


def _rewound(setup, case):
    """A used replica, rewound to its construction state, runs the schedule."""
    simulator = setup.build(True)
    _detour(simulator, case)
    simulator.rewind()
    trackers = [OutputTracker(key=key) for key in case.keys]
    _attach(simulator, trackers)
    return _observe(simulator, trackers, lambda: simulator.run_fast(case.buffer()))


def _restored(setup, case):
    """Snapshot at a cut (at step 0 unless Figure 2 resumes mid-run), detour,
    restore and run the suffix."""
    simulator, trackers = _tracked(setup, case)
    depth = case.cuts[1] if simulator.resumable else 0
    steps = case.steps

    def detour_and_back():
        snapshot = simulator.snapshot()
        _detour(simulator, case)
        simulator.restore(snapshot)

    return _observe(
        simulator,
        trackers,
        lambda: simulator.run_fast(steps[:depth]),
        detour_and_back,
        lambda: simulator.run_fast(steps[depth:]),
    )


def _timeline(setup, case):
    """A ``dist-*`` case replayed from its message-level timeline's reduction."""
    compiled = compile_timeline(run_timeline(build_generator(case.params), len(case.steps)))
    simulator, trackers = _tracked(setup, case)
    return _observe(simulator, trackers, lambda: simulator.run_fast(compiled))


def _recomputed(setup, case):
    """Figure 2 recomputing lines 3-5 every iteration, on the reference loop."""
    return reference(setup, case, recompute=True)


def _compiled(setup, case):
    return case.compiled is not None


def _replayable(setup, case):
    return case.params is not None and case.params["schedule"].startswith("dist-")


class Lane(NamedTuple):
    """A lane: how it runs, which cases it takes, when its trackers attach,
    what it records.

    ``attach`` is ``"start"``, ``"first cut"`` or ``"never"``; ``traced``
    is true when it records the whole trace, which is then compared;
    ``versions`` is false where output versions may differ.
    """

    run: Callable[..., dict]
    takes: Callable[..., bool] = lambda setup, case: True
    attach: str = "start"
    traced: bool = False
    versions: bool = True


LANES = {
    "fast": Lane(_whole(), _compiled),
    "instrumented-bound": Lane(_whole("run"), _compiled, traced=True),
    "unbound-fast": Lane(_whole(prebind=False), _compiled),
    "bare": Lane(_whole(tracked=False), _compiled, attach="never"),
    "raw-array": Lane(_whole(source="array")),
    "run-array": Lane(_whole("run", source="array"), traced=True),
    "run-segments": Lane(_segments, traced=True),
    "list": Lane(_whole(source="list")),
    "one-shot": Lane(_whole(source="one-shot")),
    "split": Lane(_split, attach="first cut"),
    "stopped": Lane(_stopped),
    "rewound": Lane(_rewound),
    "restored": Lane(_restored),
    "timeline": Lane(_timeline, _replayable),
    "recomputed": Lane(_recomputed, lambda setup, case: setup.recomputable, versions=False),
}


def assert_lane_matches(name, setup, case, whole):
    """Lane ``name`` leaves on ``case`` what the reference run ``whole`` left."""
    lane = LANES[name]
    observed = lane.run(setup, case)
    expected = dict(whole)
    if lane.attach == "first cut":
        expected = reference(setup, case, attach_at=case.cuts[0])
    elif lane.attach == "never":
        expected["changes"] = []
    if not lane.traced:
        del observed["trace"], expected["trace"]
    if not lane.versions:
        del observed["versions"], expected["versions"]
    assert observed == expected, f"lane {name!r} on {setup!r}"


def assert_lanes_match(setup, case):
    """Every lane that takes ``case`` leaves what the reference leaves."""
    whole = reference(setup, case)
    for name, lane in LANES.items():
        if lane.takes(setup, case):
            assert_lane_matches(name, setup, case, whole)


#: Process 1 alone over Π4 with k = 2: steps 1-24 are its counter collect,
#: step 25 the heartbeat write, steps 26-29 the heartbeat collect and steps
#: 30-35 one counter write per expired timer.
_SOLO = [1] * 81 + [2] * 27 + [1, 3] * 60 + [1] * 81
_F2 = figure2_setup(4, 2, 2)

#: Hand-pinned runs, name -> (setup, case); each lane on each is a test.
PINNED = {
    # Process 3 writes process 1's register in its third round: a raise at step 36.
    "trespass": (function_setup("trespassing", 3),
                 pinned_case(3, [1, 2, 3] * 20, ["seen"], (5, 20, 40))),
    # Both processes halt after ten steps; the strict replica raises at step 21.
    "strict-halt": (function_setup("halting", 2, strict=True),
                    pinned_case(2, [1, 2] * 15, ["last"], (3, 9, 21))),
    # Cuts inside collects of one and of three registers.
    "collects": (function_setup("collecting", 3),
                 pinned_case(3, [1] * 5 + [2, 3] * 9 + [1] * 7, ["seen"], (2, 6, 13), [3] * 4)),
    # Process 1 alone: cuts and snapshots land mid counter collect, at the
    # heartbeat write, mid heartbeat collect and at a counter write.
    "solo-cuts": (_F2, pinned_case(4, _SOLO, [FD_OUTPUT, WINNER_SET], (10, 25, 33),
                                   [2, 3, 4] * 40)),
    "solo-collects": (_F2, pinned_case(4, _SOLO, [FD_OUTPUT, "accusations"], (24, 27, 33),
                                       [1] * 30)),
    # E2-shaped runs long enough for the counters to settle, so most counter
    # collects repeat the last one and Figure 2 skips lines 3-5.
    "settling": (_F2, pinned_family_case(
        {"schedule": "set-timely", "n": 4, "p_set": [1, 2], "q_set": [1, 2, 3, 4],
         "bound": 3, "seed": 11},
        3_000, [FD_OUTPUT, WINNER_SET, "accusations"], (777, 1_500, 2_222))),
    "churn": (figure2_setup(3, 2, 1, "median", "doubling", declared=False), pinned_family_case(
        {"schedule": "crash-churn", "n": 3, "period": 40, "outage": 20, "churn": 1, "seed": 5},
        2_400, [LEADER, "accusations"], (100, 1_000, 1_900))),
    # Process 3's last two counter collects differ only in their first
    # register (process 1's counter of {1}): the skip must see that change too.
    "first-counter": (figure2_setup(3, 1, 1, "min", "doubling", declared=False),
                      pinned_family_case({"schedule": "random", "n": 3, "seed": 234}, 112,
                                         [WINNER_SET], (20, 50, 90))),
    # A lossy heavy-tail message run with an outage and a crash, for the timeline lane.
    "dist-lossy": (figure2_setup(4, 2, 1, "median", "doubling"), pinned_family_case(
        {"schedule": "dist-heavy-tail", "n": 4, "seed": 3, "latency": "uniform",
         "latency_scale": 2, "loss_rate": 0.3, "crash_times": {"4": 600},
         "outages": [{"pid": 2, "start": 100, "duration": 100, "period": 400}]},
        2_000, [LEADER, "accusations"], (150, 700, 1_400))),
    # The composed stack decides at steps 373-376 of round robin over Π4.
    "deciding": (agreement_setup(4, 2, 2), pinned_case(4, [1, 2, 3, 4] * 120, [DECISION],
                                                       (40, 201, 380), [1, 3, 4] * 50)),
    # The trivial algorithm decides and halts; the strict replica raises at step 15.
    "strict-decided": (agreement_setup(4, 1, 3, strict=True), pinned_case(
        4, [1, 2, 3, 4] * 20 + [1, 3, 4] * 80, [DECISION], (7, 80, 300))),
}


@lru_cache(maxsize=None)
def _pinned_reference(pinned):
    return reference(*PINNED[pinned])


@pytest.mark.parametrize(
    "pinned, lane",
    [
        pytest.param(pinned, name, id=f"{pinned}-{name}")
        for pinned, run in PINNED.items()
        for name, lane in LANES.items()
        if lane.takes(*run)
    ],
)
def test_pinned(pinned, lane):
    assert_lane_matches(lane, *PINNED[pinned], _pinned_reference(pinned))


@CONFORMANCE
@given(run=lane_runs("function"))
def test_function_automata(run):
    assert_lanes_match(*run)


@CONFORMANCE
@given(run=lane_runs("figure2"))
def test_figure2(run):
    assert_lanes_match(*run)


@CONFORMANCE
@given(run=lane_runs("agreement"))
def test_agreement_stack(run):
    assert_lanes_match(*run)
