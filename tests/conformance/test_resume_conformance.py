"""A restored snapshot plus the rest of the schedule equals the whole run.

Search candidates resume from Figure 2 run-state snapshots
(:meth:`~repro.runtime.simulator.Simulator.snapshot` /
:meth:`~repro.runtime.simulator.Simulator.restore`).  For generated bursty
candidates with mid-run crashes, snapshotting at a drawn depth, running
something else, restoring on that used replica and running the suffix must
leave what one whole run on a fresh replica leaves: outputs and their
versions, tracker change lists, register values, counts and owners,
per-process step counts, halting and the step index.  The pinned examples
stop a process at each of Figure 2's yields.  Planned
:func:`~repro.search.properties.screen_generation` batches (sorted, resumed
at shared prefixes) must give the verdicts of one-at-a-time
:meth:`~repro.search.properties.ScheduleProperty.evaluate`.
"""

from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conformance_support import CONFORMANCE, candidates, observable_state, property_setups
from repro.errors import SimulationError
from repro.runtime.observers import OutputTracker
from repro.search.prefix import MIN_SHARED_DEPTH
from repro.search.properties import make_property, screen_generation
from repro.search.shrink import rebuild_candidate

#: The properties whose replicas run Figure 2 (the automaton with the hook).
FIGURE2_PROPERTIES = ("k-anti-omega-convergence", "leader-set-convergence")


def _attach(simulator, prop):
    trackers = [
        OutputTracker(key=key)
        for key in dict.fromkeys(prop.screen_keys + prop.confirm_keys)
    ]
    for tracker in trackers:
        simulator.add_observer(tracker)
    return trackers


@st.composite
def resumed_runs(draw):
    """A Figure 2 setup, a candidate, a snapshot depth and a detour candidate."""
    name = draw(st.sampled_from(FIGURE2_PROPERTIES))
    n = draw(st.integers(3, 5))
    t = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, n - 1))
    compiled = draw(candidates(n, t))
    depth = draw(st.integers(0, len(compiled)))
    return (name, n, t, k), compiled, depth, draw(candidates(n, t))


#: Process 1 alone over Π4 with k = 2: steps 1-24 are its counter collect
#: (6 k-sets x 4 processes), step 25 the heartbeat write, steps 26-29 the
#: heartbeat collect and steps 30-35 one counter write per expired timer
#: (step 33 writes for the k-set {2, 3}, whose timer process 1's own
#: heartbeat never resets).
_SOLO = rebuild_candidate(4, [1] * 81 + [2] * 27 + [1, 3] * 60 + [1] * 81, [], "solo")
_CRASHED = rebuild_candidate(4, [1] * 40 + [2, 3, 4] * 100 + [3] * 81, [1], "crash of 1")
_SETUP = ("k-anti-omega-convergence", 4, 2, 2)


@CONFORMANCE
@given(run=resumed_runs())
@example(run=(_SETUP, _SOLO, 10, _CRASHED))  # mid counter collect
@example(run=(_SETUP, _SOLO, 25, _CRASHED))  # at the heartbeat write
@example(run=(_SETUP, _SOLO, 27, _CRASHED))  # mid heartbeat collect
@example(run=(_SETUP, _SOLO, 33, _CRASHED))  # at a counter write in the expire loop
@example(run=(_SETUP, _SOLO, 24, _SOLO))  # counter collect read, not yet delivered
@example(run=(_SETUP, _CRASHED, 300, _SOLO))  # after a crash
def test_restore_then_suffix_equals_the_full_run(run):
    (name, n, t, k), compiled, depth, detour = run
    prop = make_property(name, {"n": n, "t": t, "k": k})
    fresh = prop._build_simulator()
    fresh_trackers = _attach(fresh, prop)
    fresh.run_fast(compiled)

    replica = prop.replica()
    if len(detour):
        replica.run_fast(detour)  # a used replica
    replica.rewind()
    trackers = _attach(replica, prop)
    steps = compiled.steps
    if depth:
        replica.run_fast(steps[:depth])
    snapshot = replica.snapshot()
    if len(detour):
        replica.run_fast(detour)
    replica.restore(snapshot)
    if depth < len(steps):
        replica.run_fast(steps[depth:])
    names = set(fresh.registers.arena_view().names)
    names |= set(replica.registers.arena_view().names)
    assert observable_state(replica, trackers, names) == observable_state(
        fresh, fresh_trackers, names
    )


def test_agreement_stack_snapshots_only_before_it_runs():
    """Composed automata have no resume hook: snapshots refuse mid-run."""
    prop = make_property("agreement-safety", {"n": 4, "t": 2, "k": 2})
    replica = prop.replica()
    assert not replica.resumable
    start = replica.snapshot()
    replica.run_fast(_SOLO)
    with pytest.raises(SimulationError):
        replica.snapshot()
    replica.restore(start)
    assert replica.step_index == 0 and replica.halted_processes() == []


@st.composite
def prefix_batches(draw):
    """A property setup and a batch of candidates sharing prefixes of every length.

    Variants keep a drawn cut of one base and add their own tail; a long
    round-robin head (or none) makes the shared prefixes cross
    :data:`~repro.search.prefix.MIN_SHARED_DEPTH` (or stay under it), and
    duplicates repeat a variant verbatim.
    """
    name, n, t, k = draw(property_setups())
    base = draw(candidates(n, t))
    head = list(range(1, n + 1)) * draw(st.sampled_from([0, 20, MIN_SHARED_DEPTH // n + 40]))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        tail = draw(candidates(n, t))
        cut = draw(st.integers(0, len(base)))
        steps = head + list(base.steps[:cut]) + list(tail.steps)
        batch.append(rebuild_candidate(n, steps, sorted(tail.faulty), "variant"))
    for _ in range(draw(st.integers(0, 2))):
        batch.append(draw(st.sampled_from(batch)))
    return (name, n, t, k), batch


@CONFORMANCE
@given(run=prefix_batches(), data=st.data())
def test_planned_screen_equals_one_at_a_time(run, data):
    (name, n, t, k), batch = run
    params = {"n": n, "t": t, "k": k}
    checkpoints = data.draw(st.integers(1, 12))
    flags = data.draw(st.lists(st.booleans(), min_size=len(batch), max_size=len(batch)))

    def flagged(index, screen):
        return flags[index]

    planned = screen_generation(make_property(name, params), batch, checkpoints, flagged)
    reference = make_property(name, params)
    assert planned == [
        reference.evaluate(compiled, checkpoints, partial(flagged, index))
        for index, compiled in enumerate(batch)
    ]

