"""Whole-generation screening: the column lane is verdict-identical.

The differential suite.  ``screen_generation`` with the auto planner
(or a forced ``vector`` backend) must return :class:`PropertyVerdict`s that
compare *equal* — same ``violated``, ``fitness``, ``mode`` and ``details``
dicts — to the per-candidate :meth:`ScheduleProperty.screen` reference path,
for every registered property, across seeded generations that mix schedule
lengths, crash a process at step 0, and shrink to a generation of one.
Under ``auto`` the batch size picks the anti-Ω lane: generations below the
column-screen crossover take the reference screen by plan (no warning), so
the ``auto`` differential cases pad to the crossover to reach the kernel.
Batches the column lane cannot take (agreement-safety has no column lane)
must fall back loudly under ``auto`` — building one simulator per candidate
— and raise under a forced ``vector`` backend.  The search engine's screen-verdict cache
rides the same lane; its hit accounting is pinned here too.
"""

import logging
import random
from array import array

import pytest

from repro.core.schedule import CompiledSchedule
from repro.errors import ConfigurationError, SimulationError
from repro.runtime import vector_backend
from repro.search import properties as properties_module
from repro.search.engine import (
    _screened_verdicts,
    reset_screen_cache,
    screen_cache_stats,
)
from repro.search.properties import (
    _COLUMN_SCREEN_CROSSOVER,
    ScheduleProperty,
    available_properties,
    last_screen_plan,
    make_property,
    screen_generation,
)

PARAMS = {"n": 4, "t": 2, "k": 2}
COLUMN_PROPERTIES = ("k-anti-omega-convergence", "leader-set-convergence")


def _needs_numpy():
    if vector_backend.np is None:
        pytest.skip("numpy unavailable")


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


def _padded_to_crossover(compileds, seed):
    """``compileds`` followed by short seeded rows up to the crossover batch."""
    missing = _COLUMN_SCREEN_CROSSOVER - len(compileds)
    lengths = [7 + index % 40 for index in range(missing)]
    return list(compileds) + _generation(seed, lengths=lengths, crash_first=False)


class TestDifferentialSweep:
    @pytest.mark.parametrize("name", sorted(available_properties()))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_matches_reference_for_every_property(self, name, seed):
        prop = make_property(name, PARAMS)
        compileds = _generation(seed)
        expected = _reference(prop, compileds, 8)
        actual = screen_generation(prop, compileds, 8, backend="auto")
        assert actual == expected

    @pytest.mark.parametrize("name", COLUMN_PROPERTIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_auto_column_lane_matches_reference(self, name, seed):
        """A crossover-sized batch takes the kernel under ``auto``."""
        _needs_numpy()
        prop = make_property(name, PARAMS)
        compileds = _padded_to_crossover(_generation(seed), seed + 100)
        expected = _reference(prop, compileds, 8)
        actual = screen_generation(prop, compileds, 8, backend="auto")
        assert last_screen_plan() == {
            "lane": "column",
            "reason": None,
            "batch": _COLUMN_SCREEN_CROSSOVER,
        }
        assert actual == expected

    @pytest.mark.parametrize("name", COLUMN_PROPERTIES)
    @pytest.mark.parametrize("checkpoints", [1, 2, 7])
    def test_forced_vector_matches_reference(self, name, checkpoints):
        _needs_numpy()
        prop = make_property(name, PARAMS)
        compileds = _generation(17, lengths=(0, 3, 29, 64, 601))
        expected = _reference(prop, compileds, checkpoints)
        actual = screen_generation(prop, compileds, checkpoints, backend="vector")
        assert actual == expected
        assert last_screen_plan()["lane"] == "column"

    def test_generation_of_one(self):
        _needs_numpy()
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compileds = _generation(5, lengths=(240,), crash_first=False)
        assert screen_generation(prop, compileds, 8, backend="vector") == _reference(
            prop, compileds, 8
        )
        assert last_screen_plan() == {"lane": "column", "reason": None, "batch": 1}

    def test_crash_at_step_zero_alone(self):
        _needs_numpy()
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compiled = CompiledSchedule(
            n=4, steps=array("i", [1, 2, 3, 4] * 50), crash_steps={1: 0}
        )
        assert screen_generation(prop, [compiled], 4, backend="vector") == _reference(
            prop, [compiled], 4
        )

    def test_empty_generation(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        assert screen_generation(prop, [], 8, backend="auto") == []

    def test_unknown_backend_rejected(self):
        prop = make_property("k-anti-omega-convergence", PARAMS)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            screen_generation(prop, _generation(0), 8, backend="cuda")


class TestSizePlanner:
    def test_batch_below_crossover_takes_reference_lane(self, monkeypatch, caplog):
        def kernel_must_not_run(*args, **kwargs):
            raise AssertionError("the column kernel ran below the crossover")

        monkeypatch.setattr(
            vector_backend, "anti_omega_screen_snapshots", kernel_must_not_run
        )
        properties_module._WARNED_FALLBACKS.clear()
        prop = make_property("k-anti-omega-convergence", PARAMS)
        batch = _COLUMN_SCREEN_CROSSOVER - 1
        compileds = _padded_to_crossover(_generation(3), 31)[:batch]
        with caplog.at_level(logging.WARNING, logger=properties_module._LOGGER.name):
            actual = screen_generation(prop, compileds, 8, backend="auto")
        assert last_screen_plan() == {
            "lane": "reference",
            "reason": f"batch of {batch} below the column-screen crossover "
            f"({_COLUMN_SCREEN_CROSSOVER})",
            "batch": batch,
        }
        assert not caplog.records
        assert actual == _reference(prop, compileds, 8)


class TestAutoFallback:
    def test_unlowerable_property_falls_back_loudly(self, caplog):
        """agreement-safety composes an unlowered automaton: loud reference lane."""
        properties_module._WARNED_FALLBACKS.clear()
        prop = make_property("agreement-safety", PARAMS)
        compileds = _generation(9, lengths=(0, 12, 90))
        with caplog.at_level(
            logging.WARNING, logger=properties_module._LOGGER.name
        ):
            actual = screen_generation(prop, compileds, 6, backend="auto")
        assert actual == _reference(prop, compileds, 6)
        plan = last_screen_plan()
        assert plan["lane"] == "reference" and plan["batch"] == 3
        assert plan["reason"]
        if vector_backend.np is not None:
            assert "has no column screen lane" in plan["reason"]
            assert any(
                "falling back" in record.message for record in caplog.records
            )

    def test_fallback_builds_one_simulator_per_candidate(self, monkeypatch):
        """The reference fallback is the only lane that builds simulators."""
        prop = make_property("agreement-safety", PARAMS)
        build = type(prop)._build_simulator
        builds = []

        def counting_build(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(type(prop), "_build_simulator", counting_build)
        compileds = _generation(4, lengths=(0, 5, 12, 30, 31, 64, 90, 120))
        screen_generation(prop, compileds, 6, backend="auto")
        assert len(builds) == len(compileds)

    def test_forced_vector_raises_on_unlowerable_property(self):
        _needs_numpy()
        prop = make_property("agreement-safety", PARAMS)
        with pytest.raises(SimulationError, match="could not take the batch"):
            screen_generation(prop, _generation(9, lengths=(12,)), 6, backend="vector")

    def test_screen_override_falls_back_under_auto(self):
        """A property spelling its own screen() keeps it under the planner."""

        class Opinionated(ScheduleProperty):
            name = "opinionated"

            def __init__(self):
                self.calls = 0

            def screen(self, compiled, checkpoints):
                self.calls += 1
                return ScheduleProperty.screen(
                    make_property("k-anti-omega-convergence", PARAMS),
                    compiled,
                    checkpoints,
                )

            def _build_simulator(self):  # pragma: no cover - never reached
                raise AssertionError

            def judge_screen(self, snapshots, compiled):  # pragma: no cover
                raise AssertionError

            def confirm(self, compiled):  # pragma: no cover
                raise AssertionError

        prop = Opinionated()
        compileds = _generation(2, lengths=(10, 20))
        verdicts = screen_generation(prop, compileds, 4, backend="auto")
        assert prop.calls == 2 and len(verdicts) == 2
        assert last_screen_plan()["lane"] == "reference"
        with pytest.raises(SimulationError):
            screen_generation(prop, compileds, 4, backend="vector")


class TestEngineScreenCache:
    def test_hits_counted_on_rescreened_candidates(self):
        """Satellite 2: re-screening a generation is all cache hits, no lane work."""
        reset_screen_cache()
        prop = make_property("k-anti-omega-convergence", PARAMS)
        compileds = _generation(23, lengths=(40, 41, 42, 40))
        first = _screened_verdicts(prop, compileds, 8, "auto")
        stats = screen_cache_stats()
        assert stats["misses"] == 4 and stats["hits"] == 0
        second = _screened_verdicts(prop, compileds, 8, "auto")
        stats = screen_cache_stats()
        assert stats["hits"] == 4 and stats["misses"] == 4
        assert second == first == _reference(prop, compileds, 8)
        # A changed checkpoint count is a different cache identity.
        _screened_verdicts(prop, compileds, 4, "auto")
        assert screen_cache_stats()["misses"] == 8
        reset_screen_cache()
        assert screen_cache_stats() == {"hits": 0, "misses": 0}
