"""Hypothesis profiles and strategies for the differential conformance suite.

Tier-1 runs the derandomized ``conformance`` profile, so every run draws the
same examples and a failure reproduces as it is.  Setting
``REPRO_CONFORMANCE_PROFILE=conformance-deep`` runs many more, randomized
examples (a CI leg's job).
"""

from __future__ import annotations

import os
from typing import List, Tuple

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
