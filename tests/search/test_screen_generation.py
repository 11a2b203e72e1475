"""Whole-generation screening: one tracked run per candidate.

``screen_generation`` must return :class:`PropertyVerdict`s that compare
*equal* — same ``violated``, ``fitness``, ``mode`` and ``details`` dicts —
to the per-candidate :meth:`ScheduleProperty.screen` path, for every
registered property, across seeded generations that mix schedule lengths,
crash a process at step 0, and shrink to a generation of one.  A flagged
candidate's exact verdict comes from the same run and must equal
:meth:`ScheduleProperty.confirm`, identical candidates included.
"""

import random
from array import array

import pytest

from repro.core.schedule import CompiledSchedule
from repro.search.properties import (
    available_properties,
    last_screen_plan,
    make_property,
    screen_generation,
)

PARAMS = {"n": 4, "t": 2, "k": 2}


def _generation(seed, n=4, lengths=(0, 1, 30, 31, 173, 600), crash_first=True):
    """A seeded mixed-length generation; first non-empty row crashes at step 0."""
    rng = random.Random(seed)
    compileds = []
    for index, length in enumerate(lengths):
        steps = array("i", [rng.randrange(1, n + 1) for _ in range(length)])
        crash = {steps[0]: 0} if crash_first and index == 1 and length else {}
        compileds.append(CompiledSchedule(n=n, steps=steps, crash_steps=crash))
    return compileds


def _reference(prop, compileds, checkpoints):
    return [prop.screen(compiled, checkpoints) for compiled in compileds]


def _every_other(index, screen):
    return index % 2 == 0


class TestGenerationMatchesPerCandidate:
    @pytest.mark.parametrize("name", sorted(available_properties()))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_property(self, name, seed):
        prop = make_property(name, PARAMS)
        compileds = _generation(seed)
        expected = _reference(prop, compileds, 8)
        assert screen_generation(prop, compileds, 8) == expected
        assert last_screen_plan() == {"lane": "reference", "batch": len(compileds)}

    @pytest.mark.parametrize("name", sorted(available_properties()))
    def test_flagged_candidates_carry_the_confirm_verdict(self, name):
        prop = make_property(name, PARAMS)
        compileds = _generation(7, lengths=(0, 40, 173, 600, 601))
        verdicts = screen_generation(prop, compileds, 6, flagged=_every_other)
        for index, (verdict, compiled) in enumerate(zip(verdicts, compileds)):
            if index % 2:
                assert verdict.exact is None
            else:
                assert verdict.exact == prop.confirm(compiled)
            assert verdict.mode == "screen"
            assert verdict.details == prop.screen(compiled, 6).details

    def test_generation_of_one(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compileds = _generation(5, lengths=(240,), crash_first=False)
        assert screen_generation(prop, compileds, 8) == _reference(prop, compileds, 8)
        assert last_screen_plan() == {"lane": "reference", "batch": 1}

    def test_crash_at_step_zero_alone(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compiled = CompiledSchedule(
            n=4, steps=array("i", [1, 2, 3, 4] * 50), crash_steps={1: 0}
        )
        assert screen_generation(prop, [compiled], 4) == _reference(prop, [compiled], 4)

    def test_empty_generation(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        assert screen_generation(prop, [], 8) == []


class TestIdenticalCandidates:
    def test_identical_candidates_in_one_batch_get_equal_verdicts(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        (compiled,) = _generation(23, lengths=(300,), crash_first=False)
        # Equal content, distinct objects, around a different candidate.
        twin = CompiledSchedule(n=4, steps=array("i", compiled.steps), crash_steps={})
        other = _generation(24, lengths=(300,), crash_first=False)[0]
        verdicts = screen_generation(
            prop, [compiled, other, twin], 8, flagged=lambda index, screen: index != 1
        )
        assert verdicts[0] == verdicts[2]
        assert verdicts[0].exact == verdicts[2].exact == prop.confirm(compiled)
        assert verdicts[1].exact is None
