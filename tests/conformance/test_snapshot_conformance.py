"""Checkpoint snapshots derived from tracker change lists, against stepping.

The search's screen judges outputs sampled at step boundaries, and derives
them from one tracked run (:func:`~repro.search.properties.tracker_snapshots`):
the value at boundary ``b`` is the last change recorded at a step ``<= b``.
The reference here shares nothing with that derivation: a fresh replica
executes the candidate one :meth:`~repro.runtime.simulator.Simulator.step` at
a time and reads every process's outputs as each boundary passes.  Both
must agree for every registered property, every generated candidate and
checkpoint count.

A tracker counts steps from 1, so reading the boundary as ``step < b``
instead is an off-by-one; on a seed-1 search generation it changes the
snapshots of 4 candidates in 256, which pins that the reference sees it.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from conformance_support import CONFORMANCE, candidates, property_setups
from repro.core.schedule import CompiledSchedule
from repro.search.engine import SearchConfig, generation_recipes
from repro.search.mutations import realize
from repro.search.properties import make_property, tracker_snapshots


def _stepwise_snapshots(prop, compiled, keys, checkpoints):
    """Outputs after ``(L * i) // checkpoints`` single steps, ``i = 1..checkpoints``."""
    simulator = prop._build_simulator()
    bounds = [(len(compiled) * i) // checkpoints for i in range(1, checkpoints + 1)]
    snapshots = []
    executed = 0
    for bound in bounds:
        while executed < bound:
            simulator.step(compiled.steps[executed])
            executed += 1
        snapshots.append(
            {
                pid: {key: simulator.output_of(pid, key) for key in keys}
                for pid in range(1, compiled.n + 1)
            }
        )
    return snapshots


def _derived_snapshots(prop, compiled, keys, checkpoints):
    with prop.tracked_run(compiled, keys) as trackers:
        return tracker_snapshots(trackers, keys, compiled.n, len(compiled), checkpoints)


def _keys(prop):
    return tuple(dict.fromkeys(prop.screen_keys + prop.confirm_keys))


@CONFORMANCE
@given(setup=property_setups(), data=st.data())
@example(setup=("k-anti-omega-convergence", 4, 2, 2), data=None)
def test_derived_snapshots_equal_stepwise_reference(setup, data):
    name, n, t, k = setup
    prop = make_property(name, {"n": n, "t": t, "k": k})
    if data is None:
        compiled, checkpoints = CompiledSchedule(n=n, steps=[]), 3
    else:
        compiled = data.draw(candidates(n, t))
        checkpoints = data.draw(st.integers(1, 16))
    keys = _keys(prop)
    assert _derived_snapshots(prop, compiled, keys, checkpoints) == _stepwise_snapshots(
        prop, compiled, keys, checkpoints
    )


def _strict_boundary_snapshots(trackers, keys, n, length, checkpoints):
    """The off-by-one mutant: a change counts only at a step ``< b``."""
    bounds = [(length * i) // checkpoints for i in range(1, checkpoints + 1)]
    snapshots = []
    for bound in bounds:
        snapshot = {pid: {} for pid in range(1, n + 1)}
        for key in keys:
            current = [None] * (n + 1)
            for change in trackers[key].changes:
                if change.step < bound:
                    current[change.pid] = change.value
            for pid in range(1, n + 1):
                snapshot[pid][key] = current[pid]
        snapshots.append(snapshot)
    return snapshots


def test_strict_boundary_off_by_one_is_caught():
    """Generation 0 of a 256-candidate search at horizon 2400, seed 1."""
    config = SearchConfig(population=256, eval_chunk=256, horizon=2_400, seed=1)
    prop = make_property(config.property, config.property_params())
    keys = prop.screen_keys
    differing = 0
    for recipe in generation_recipes(config, 0, []):
        compiled = realize(recipe)
        reference = _stepwise_snapshots(prop, compiled, keys, config.checkpoints)
        with prop.tracked_run(compiled, keys) as trackers:
            derived = tracker_snapshots(
                trackers, keys, compiled.n, len(compiled), config.checkpoints
            )
            mutant = _strict_boundary_snapshots(
                trackers, keys, compiled.n, len(compiled), config.checkpoints
            )
        assert derived == reference
        differing += mutant != reference
    assert differing == 4
