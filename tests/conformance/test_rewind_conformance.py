"""A rewound replica runs exactly like a freshly built one.

The search judges every candidate on one replica per property, rewound
between candidates (:meth:`~repro.runtime.simulator.Simulator.rewind`).  For
every registered property — the Figure 2 detector, and the agreement stack
both composed (detector + agreement, ``k <= t``) and trivial (``k > t``) —
and any generated sequence of bursty candidates with mid-run crashes, each
run on the rewound replica must leave the state a fresh replica leaves:
published outputs, tracker change lists, register values, counts and
owners, per-process step counts, halting and the step index.  And one run
serves both judges: the exact verdict a flagged candidate's screen run
attaches equals a separate ``confirm``.
"""

from dataclasses import replace

from hypothesis import example, given
from hypothesis import strategies as st

from conformance_support import CONFORMANCE, candidates, observable_state, property_setups
from repro.runtime.observers import OutputTracker
from repro.search.properties import make_property, screen_generation
from repro.search.shrink import rebuild_candidate


def _tracked_keys(prop):
    return tuple(dict.fromkeys(prop.screen_keys + prop.confirm_keys))


def _run(simulator, compiled, keys):
    trackers = [OutputTracker(key=key) for key in keys]
    for tracker in trackers:
        simulator.add_observer(tracker)
    simulator.run_fast(compiled)
    return trackers


@st.composite
def candidate_sequences(draw):
    """A property setup and one to four candidates to run on one replica."""
    setup = draw(property_setups())
    _, n, t, _ = setup
    return setup, draw(st.lists(candidates(n, t), min_size=1, max_size=4))


#: Round robin until every agreement process decides and halts, then a
#: candidate with process 2 crashed mid-run (both over Π4).
_DECIDING = rebuild_candidate(4, [1, 2, 3, 4] * 60, [], "round robin")
_CRASHED = rebuild_candidate(
    4, [1, 2, 3, 4] * 20 + [1, 3, 4] * 80 + [3] * 81, [2], "crash of 2"
)


@CONFORMANCE
@given(run=candidate_sequences())
@example(run=(("agreement-safety", 4, 1, 3), [_DECIDING, _CRASHED, _DECIDING]))
@example(run=(("agreement-safety", 4, 2, 2), [_CRASHED, _DECIDING, _CRASHED]))
@example(run=(("k-anti-omega-convergence", 4, 2, 2), [_CRASHED, _DECIDING]))
def test_rewound_replica_equals_a_fresh_one(run):
    (name, n, t, k), sequence = run
    prop = make_property(name, {"n": n, "t": t, "k": k})
    keys = _tracked_keys(prop)
    replica = prop._build_simulator()
    for compiled in sequence:
        fresh = prop._build_simulator()
        fresh_trackers = _run(fresh, compiled, keys)
        rewound_trackers = _run(replica, compiled, keys)
        # Compare every register either replica has interned: the rewound
        # one keeps names earlier candidates created, at their initial state.
        names = set(fresh.registers.arena_view().names)
        names |= set(replica.registers.arena_view().names)
        assert observable_state(replica, rewound_trackers, names) == observable_state(
            fresh, fresh_trackers, names
        )
        replica.rewind()
        assert not replica.observer_entries() and replica.step_index == 0


@CONFORMANCE
@given(setup=property_setups(), data=st.data())
def test_property_verdicts_match_fresh_replicas(setup, data):
    """The property's own rewound replica gives a fresh replica's verdicts."""
    name, n, t, k = setup
    params = {"n": n, "t": t, "k": k}
    prop = make_property(name, params)
    checkpoints = data.draw(st.integers(1, 12))
    for compiled in data.draw(st.lists(candidates(n, t), min_size=1, max_size=4)):
        fresh = make_property(name, params)
        assert prop.screen(compiled, checkpoints) == fresh.screen(compiled, checkpoints)
        fresh = make_property(name, params)
        assert prop.confirm(compiled) == fresh.confirm(compiled)


@CONFORMANCE
@given(setup=property_setups(), data=st.data())
def test_one_run_serves_both_judges(setup, data):
    """A flagged candidate's exact verdict from its screen run equals confirm."""
    name, n, t, k = setup
    params = {"n": n, "t": t, "k": k}
    prop = make_property(name, params)
    checkpoints = data.draw(st.integers(1, 12))
    sequence = data.draw(st.lists(candidates(n, t), min_size=1, max_size=4))
    flags = data.draw(st.lists(st.booleans(), min_size=len(sequence), max_size=len(sequence)))
    verdicts = screen_generation(
        prop, sequence, checkpoints, flagged=lambda index, screen: flags[index]
    )
    reference = make_property(name, params)
    for compiled, verdict, flag in zip(sequence, verdicts, flags):
        assert verdict.exact == (reference.confirm(compiled) if flag else None)
        assert verdict == replace(reference.screen(compiled, checkpoints), exact=verdict.exact)
