"""Whole-generation screening: its report and its empty case.

That :func:`~repro.search.properties.screen_generation` returns the verdicts
one-at-a-time screens and confirms return, for every registered property and
generated candidates (crashes at step 0, duplicates, shared prefixes, empty
and one-candidate generations), is pinned by
``tests/conformance/test_rewind_conformance.py`` and
``tests/conformance/test_resume_conformance.py``.
"""

from array import array

from repro.core.schedule import CompiledSchedule
from repro.search.properties import last_screen_plan, make_property, screen_generation

PARAMS = {"n": 4, "t": 2, "k": 2}


def test_plan_reports_the_reference_lane_and_batch():
    prop = make_property("k-anti-omega-convergence", PARAMS)
    compileds = [
        CompiledSchedule(n=4, steps=array("i", [1, 2, 3, 4] * length))
        for length in (0, 10, 60)
    ]
    screen_generation(prop, compileds, 8)
    assert last_screen_plan() == {"lane": "reference", "batch": 3}


def test_empty_generation():
    prop = make_property("k-anti-omega-convergence", PARAMS)
    assert screen_generation(prop, [], 8) == []
