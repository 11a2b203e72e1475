"""Hypothesis profiles and strategies for the differential conformance suite.

Tier-1 runs the derandomized ``conformance`` profile, so every run draws the
same examples and a failure reproduces as it is.  Setting
``REPRO_CONFORMANCE_PROFILE=conformance-deep`` runs many more, randomized
examples (a CI leg's job).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.core.schedule import CompiledSchedule
from repro.search.properties import available_properties
from repro.search.shrink import rebuild_candidate

settings.register_profile(
    "conformance",
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile(
    "conformance-deep",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: The settings every conformance test runs under.
CONFORMANCE = settings(
    settings.get_profile(os.environ.get("REPRO_CONFORMANCE_PROFILE", "conformance"))
)

#: Burst lengths: solo stretches long enough to expire Figure 2's timers.
BURSTS = (1, 2, 3, 9, 27, 81, 243)


@st.composite
def property_setups(draw) -> Tuple[str, int, int, int]:
    """``(property name, n, t, k)`` every registered property accepts.

    Agreement safety runs the composed detector + agreement stack when
    ``k <= t`` and the trivial algorithm otherwise; both are drawn.
    """
    name = draw(st.sampled_from(available_properties()))
    n = draw(st.integers(3, 5))
    t = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, n - 1))
    return name, n, t, k


@st.composite
def candidates(draw, n: int, t: int) -> CompiledSchedule:
    """A bursty schedule over ``Πn`` with up to ``t`` mid-run crashes.

    Each burst is one process stepping alone; uniformly random steps keep
    every process timely and hide most detector behaviour.  A crashed
    process takes no step from its drawn crash point on, and the crash
    metadata is rebuilt to match the buffer.
    """
    bursts = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.sampled_from(BURSTS)), max_size=14
        )
    )
    steps: List[int] = [pid for pid, length in bursts for _ in range(length)]
    faulty = draw(st.sets(st.integers(1, n), max_size=t))
    for pid in sorted(faulty):
        crash_at = draw(st.integers(0, len(steps)))
        steps = [
            step for index, step in enumerate(steps) if step != pid or index < crash_at
        ]
    return rebuild_candidate(n, steps, sorted(faulty), "generated")


def observable_state(simulator, trackers, names) -> Dict[str, Any]:
    """Everything a run can observably change, registers read by ``names``."""
    arena = simulator.registers.arena_view()
    registers = {}
    for name in names:
        slot = simulator.registers.resolve_slot(name)
        registers[name] = (
            arena.values[slot],
            arena.read_counts[slot],
            arena.write_counts[slot],
            arena.writers[slot],
        )
    pids = range(1, simulator.n + 1)
    return {
        "outputs": {pid: dict(simulator.automaton(pid).outputs) for pid in pids},
        "versions": {
            pid: (
                simulator.automaton(pid).outputs_version,
                dict(simulator.automaton(pid).output_versions),
            )
            for pid in pids
        },
        "changes": [
            [(change.step, change.pid, change.value) for change in tracker.changes]
            for tracker in trackers
        ],
        "registers": registers,
        "steps_taken": [simulator.steps_taken(pid) for pid in pids],
        "halted": simulator.halted_processes(),
        "step_index": simulator.step_index,
    }


#: Longest prefix a family conformance example compiles.
FAMILY_HORIZON = 600


@st.composite
def crash_params(
    draw, n: int, horizon: int, including: Tuple[int, ...] = ()
) -> Dict[str, Any]:
    """Scenario crash parameters over ``Πn`` for a ``horizon``-step prefix.

    Shapes: failure-free, static (``crashes``: crashed from step 0), mid-run
    (``crash_steps`` in ``[0, horizon]``) for a drawn non-empty subset that
    always contains ``including``, and everyone crashing mid-run.
    """
    pids = st.integers(1, n)
    shape = draw(st.sampled_from(["mid-run", "mid-run", "static", "none", "everyone"]))
    if shape == "none":
        return {}
    if shape == "static":
        return {"crashes": sorted(draw(st.sets(pids, max_size=n)) | set(including))}
    faulty = (
        set(range(1, n + 1))
        if shape == "everyone"
        else draw(st.sets(pids, min_size=1, max_size=n)) | set(including)
    )
    crash_at = st.integers(0, horizon)
    return {"crash_steps": {str(pid): draw(crash_at) for pid in sorted(faulty)}}


@st.composite
def _round_robin(draw, n: int) -> Dict[str, Any]:
    order = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, n))]
    return {"order": list(order)} if draw(st.booleans()) else {}


@st.composite
def _random(draw, n: int) -> Dict[str, Any]:
    weights = draw(
        st.dictionaries(st.integers(1, n), st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]))
    )
    return {"weights": {str(pid): w for pid, w in weights.items()}} if weights else {}


@st.composite
def _eventually_synchronous(draw, n: int) -> Dict[str, Any]:
    return {"chaos_steps": draw(st.integers(0, 300))}


@st.composite
def _carrier_rotation(draw, n: int) -> Dict[str, Any]:
    carriers = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    return {
        "carriers": carriers,
        "base_phase": draw(st.integers(1, 6)),
        "phase_growth": draw(st.integers(1, 4)),
        # A crashed carrier hands the rest of its phase over.
        "_including": (draw(st.sampled_from(carriers)),) if len(carriers) > 1 else (),
    }


@st.composite
def _alternating_epochs(draw, n: int) -> Dict[str, Any]:
    return {
        "sync_epoch": draw(st.integers(1, 40)),
        "async_epoch": draw(st.integers(1, 40)),
        "epoch_growth": draw(st.integers(0, 8)),
    }


@st.composite
def _crash_churn(draw, n: int) -> Dict[str, Any]:
    period = draw(st.integers(1, 40))
    return {
        "period": period,
        "outage": draw(st.integers(0, period)),
        "churn": draw(st.integers(0, 3)),
    }


@st.composite
def _set_timely(draw, n: int) -> Dict[str, Any]:
    pids = st.integers(1, n)
    p_set = draw(st.sets(pids, min_size=1, max_size=n))
    q_set = draw(st.sets(pids, min_size=1, max_size=n))
    fillers = sorted(set(range(1, n + 1)) - p_set)
    burst_pool = sorted(set(fillers) - q_set)
    burst_set = draw(st.sets(st.sampled_from(burst_pool), max_size=2)) if burst_pool else set()
    return {
        "p_set": sorted(p_set),
        "q_set": sorted(q_set),
        "bound": draw(st.integers(2, 6)),
        "base_phase": draw(st.integers(1, 6)),
        "phase_growth": draw(st.integers(1, 4)),
        "burst_set": sorted(burst_set),
        "burst_base": draw(st.integers(0, 20)),
        "burst_growth": draw(st.integers(0, 10)),
        # Every filler (process outside P) crashed: the emitter stops
        # drawing fillers from the last filler crash step on.
        "_including": tuple(fillers) if draw(st.booleans()) else (),
    }


#: Family name -> strategy of its own parameters given ``n``.
FAMILY_STRATEGIES = {
    "round-robin": _round_robin,
    "random": _random,
    "eventually-synchronous": _eventually_synchronous,
    "carrier-rotation": _carrier_rotation,
    "alternating-epochs": _alternating_epochs,
    "set-timely": _set_timely,
    "crash-churn": _crash_churn,
}


@st.composite
def family_cases(draw, family: str) -> Tuple[Dict[str, Any], int]:
    """``(build_generator parameters, prefix length)`` of ``family``.

    ``n`` is 1..9, so uniformly random stretches draw over alive sets of
    every size from 1 to 9, and crash steps fall inside the prefix.  Some
    drawn combinations are invalid (every carrier or every member of ``P``
    crashed from step 0, all weights zero): building them raises
    :class:`~repro.errors.ConfigurationError`.
    """
    n = draw(st.integers(1, 9))
    length = draw(st.integers(0, FAMILY_HORIZON))
    own = draw(FAMILY_STRATEGIES[family](n))
    including = own.pop("_including", ())
    params = {
        "schedule": family,
        "n": n,
        "seed": draw(st.integers(0, 2**32 - 1)),
        **own,
        **draw(crash_params(n, length, including)),
    }
    return params, length
