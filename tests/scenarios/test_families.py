"""Scenario families: the registry, the new generators, and RNG-stream pinning."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.crash import CrashPattern
from repro.scenarios import (
    AlternatingSynchronyGenerator,
    CrashRecoveryChurnGenerator,
    ScenarioSpec,
    available_families,
    build_generator,
    build_scenario,
    family_descriptions,
)
from repro.schedules.adversary import CarrierRotationAdversary, EventuallySynchronousGenerator
from repro.schedules.random_schedule import RandomGenerator
from repro.schedules.round_robin import RoundRobinGenerator
from repro.schedules.set_timely import SetTimelyGenerator


class TestRegistry:
    def test_all_families_registered(self):
        assert set(available_families()) == {
            "round-robin",
            "random",
            "figure1",
            "set-timely",
            "eventually-synchronous",
            "carrier-rotation",
            "crash-churn",
            "alternating-epochs",
            "spliced-adversary",
            "dist-heavy-tail",
            "dist-diurnal",
            "dist-correlated-failures",
            "dist-rolling-restart",
            "dist-sticky-failover",
        }
        assert all(family_descriptions().values())

    def test_unknown_family_fails_with_the_list(self):
        with pytest.raises(ConfigurationError, match="unknown schedule family"):
            build_generator({"schedule": "wormhole", "n": 3})

    def test_missing_required_parameter_reported_by_name(self):
        with pytest.raises(ConfigurationError, match="requires parameter 'p_set'"):
            build_generator({"schedule": "set-timely", "n": 3})

    def test_figure1_rejects_silent_processes(self):
        # n=4 with the default roles leaves process 4 with zero steps — faulty
        # by the paper's definition, contradicting the failure-free claim and
        # corrupting any verdict computed against the correct set.
        with pytest.raises(ConfigurationError, match="without any"):
            build_generator({"schedule": "figure1", "n": 4})
        generator = build_generator({"schedule": "figure1", "n": 3})
        assert set(generator.generate(60).steps) == {1, 2, 3}
        wider = build_generator(
            {"schedule": "figure1", "n": 4, "rotating": [1, 2, 4], "reference": 3}
        )
        assert set(wider.generate(60).steps) == {1, 2, 3, 4}


class TestRNGStreamPinning:
    """Declarative building must reproduce direct construction byte-for-byte."""

    def test_set_timely_stream_identical(self):
        direct = SetTimelyGenerator(
            n=5,
            p_set={1, 2},
            q_set={1, 2, 3},
            bound=3,
            seed=11,
            crash_pattern=CrashPattern.initial_crashes(5, {5}),
        )
        declarative = build_generator(
            {
                "schedule": "set-timely",
                "n": 5,
                "p_set": [1, 2],
                "q_set": [1, 2, 3],
                "bound": 3,
                "seed": 11,
                "crashes": [5],
            }
        )
        assert declarative.generate(5_000).steps == direct.generate(5_000).steps

    def test_random_stream_identical(self):
        direct = RandomGenerator(4, seed=23)
        declarative = build_generator({"schedule": "random", "n": 4, "seed": 23})
        assert declarative.generate(2_000).steps == direct.generate(2_000).steps

    def test_eventually_synchronous_stream_identical(self):
        direct = EventuallySynchronousGenerator(4, chaos_steps=300, seed=5)
        declarative = build_generator(
            {"schedule": "eventually-synchronous", "n": 4, "chaos_steps": 300, "seed": 5}
        )
        assert declarative.generate(1_000).steps == direct.generate(1_000).steps

    def test_carrier_rotation_stream_identical(self):
        direct = CarrierRotationAdversary(4, carriers={1, 2})
        declarative = build_generator(
            {"schedule": "carrier-rotation", "n": 4, "carriers": [1, 2]}
        )
        assert declarative.generate(1_000).steps == direct.generate(1_000).steps

    def test_round_robin_stream_identical(self):
        direct = RoundRobinGenerator(4)
        declarative = build_generator({"schedule": "round-robin", "n": 4})
        assert declarative.generate(100).steps == direct.generate(100).steps


class TestCrashRecoveryChurn:
    def test_everyone_steps_infinitely_often(self):
        generator = CrashRecoveryChurnGenerator(5, seed=3, period=40, outage=20, churn=2)
        steps = generator.generate(4_000).steps
        for pid in range(1, 6):
            assert steps.count(pid) > 400

    def test_down_processes_skip_the_outage_window(self):
        # churn=1, deterministic seed: in every cycle some process is absent
        # from the first `outage` emitted steps but present later in the cycle.
        generator = CrashRecoveryChurnGenerator(4, seed=7, period=32, outage=16, churn=1)
        steps = generator.generate(32 * 10).steps
        churn_cycles = 0
        for cycle in range(10):
            window = steps[cycle * 32 : cycle * 32 + 16]
            rest = steps[cycle * 32 + 16 : (cycle + 1) * 32]
            missing = set(range(1, 5)) - set(window)
            if missing:
                churn_cycles += 1
                assert missing <= set(rest)
        assert churn_cycles >= 8  # churn=1 picks somebody almost every cycle

    def test_no_process_down_twice_in_a_row(self):
        generator = CrashRecoveryChurnGenerator(3, seed=1, period=20, outage=10, churn=1)
        steps = generator.generate(20 * 20).steps
        previous_missing: set = set()
        for cycle in range(20):
            window = steps[cycle * 20 : cycle * 20 + 10]
            missing = set(range(1, 4)) - set(window)
            assert not (missing & previous_missing)
            previous_missing = missing

    def test_deterministic_and_seed_sensitive(self):
        a = CrashRecoveryChurnGenerator(4, seed=5).generate(1_000).steps
        b = CrashRecoveryChurnGenerator(4, seed=5).generate(1_000).steps
        c = CrashRecoveryChurnGenerator(4, seed=6).generate(1_000).steps
        assert a == b
        assert a != c

    def test_permanent_crashes_honoured(self):
        generator = CrashRecoveryChurnGenerator(
            4, seed=2, crash_pattern=CrashPattern.initial_crashes(4, {4})
        )
        assert 4 not in generator.generate(500).steps

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashRecoveryChurnGenerator(3, period=0)
        with pytest.raises(ConfigurationError):
            CrashRecoveryChurnGenerator(3, period=10, outage=11)
        with pytest.raises(ConfigurationError):
            CrashRecoveryChurnGenerator(3, churn=-1)


class TestAlternatingSynchrony:
    def test_first_sync_epoch_is_round_robin(self):
        generator = AlternatingSynchronyGenerator(3, seed=0, sync_epoch=9, async_epoch=5)
        assert generator.generate(9).steps == (1, 2, 3) * 3

    def test_bounded_epochs_report_a_guarantee(self):
        bounded = AlternatingSynchronyGenerator(4, sync_epoch=16, async_epoch=16)
        guarantee = bounded.guarantee()
        assert guarantee is not None
        assert guarantee.p_set == frozenset({1, 2, 3, 4})
        assert guarantee.bound == 16 + 4
        growing = AlternatingSynchronyGenerator(4, epoch_growth=2)
        assert growing.guarantee() is None

    def test_dynamic_crashes_void_the_guarantee(self):
        # A faulty process's pre-crash steps stretch P-free windows across
        # epoch boundaries, so a timed crash must drop the certificate ...
        late_crash = AlternatingSynchronyGenerator(
            4, crash_pattern=CrashPattern.crashes_at(4, {1: 1_000})
        )
        assert late_crash.guarantee() is None
        # ... while initial crashes (the faulty never step) keep it.
        initial = AlternatingSynchronyGenerator(
            4, crash_pattern=CrashPattern.initial_crashes(4, {1})
        )
        guarantee = initial.guarantee()
        assert guarantee is not None
        assert guarantee.p_set == frozenset({2, 3, 4})

    def test_epochs_grow(self):
        generator = AlternatingSynchronyGenerator(
            2, seed=0, sync_epoch=4, async_epoch=4, epoch_growth=4
        )
        # Epoch 0: 4 sync + 4 async; epoch 1: 8 sync + 8 async.
        steps = generator.generate(4 + 4 + 8).steps
        assert steps[:4] == (1, 2, 1, 2)
        assert steps[8:16] == (1, 2, 1, 2, 1, 2, 1, 2)

    def test_crashes_honoured_in_both_phases(self):
        generator = AlternatingSynchronyGenerator(
            3, seed=4, crash_pattern=CrashPattern.initial_crashes(3, {2})
        )
        assert 2 not in generator.generate(600).steps

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AlternatingSynchronyGenerator(3, sync_epoch=0)
        with pytest.raises(ConfigurationError):
            AlternatingSynchronyGenerator(3, epoch_growth=-1)


class TestSplicedAdversary:
    def test_prefix_then_adversary(self):
        generator = build_generator(
            {"schedule": "spliced-adversary", "n": 3, "carriers": [1, 2], "switch_at": 6}
        )
        direct_suffix = CarrierRotationAdversary(3, carriers={1, 2})
        steps = generator.generate(6 + 200).steps
        assert steps[:6] == (1, 2, 3, 1, 2, 3)
        assert steps[6:] == direct_suffix.generate(200).steps

    def test_default_carriers_all_but_last(self):
        generator = build_generator({"schedule": "spliced-adversary", "n": 4})
        assert "carriers=[1, 2, 3]" in generator.description

    def test_unknown_prefix_rejected(self):
        with pytest.raises(ConfigurationError, match="prefix"):
            build_generator(
                {"schedule": "spliced-adversary", "n": 3, "prefix": "quantum"}
            )

    def test_crash_steps_keep_their_global_meaning_across_the_splice(self):
        # A crash prescribed at global step 500 must hold on both sides of a
        # 1000-step splice: the process takes no step at index >= 500, and
        # the reported pattern round-trips the prescription unchanged.
        generator = build_generator(
            {
                "schedule": "spliced-adversary",
                "n": 3,
                "carriers": [1, 2],
                "switch_at": 1_000,
                "crash_steps": {"2": 500},
            }
        )
        assert generator.crash_pattern.crash_steps == {2: 500}
        steps = generator.generate(2_000).steps
        assert 2 in steps[:500]
        assert 2 not in steps[500:]
        # A post-splice crash lands at its global step too.
        late = build_generator(
            {
                "schedule": "spliced-adversary",
                "n": 3,
                "carriers": [1, 2],
                "switch_at": 100,
                "crash_steps": {"2": 150},
            }
        )
        assert late.crash_pattern.crash_steps == {2: 150}
        late_steps = late.generate(600).steps
        assert 2 in late_steps[:150]
        assert 2 not in late_steps[150:]


class TestScenarioSpec:
    def test_build_and_round_trip_params(self):
        spec = ScenarioSpec(
            family="crash-churn",
            params={"n": 4, "seed": 3, "period": 32, "outage": 8},
            perturbations=({"kind": "noise", "rate": 0.1, "seed": 2},),
        )
        generator = spec.build()
        assert generator.n == 4
        assert "perturb(noise" in generator.description
        flat = spec.to_campaign_params()
        assert flat["schedule"] == "crash-churn"
        rebuilt = build_generator(flat)
        assert rebuilt.generate(500).steps == generator.generate(500).steps

    def test_describe_mentions_the_family(self):
        spec = ScenarioSpec(family="round-robin", params={"n": 3})
        assert "round-robin" in spec.describe()

    def test_perturbations_apply_in_order(self):
        base = ScenarioSpec(family="round-robin", params={"n": 3})
        noisy = ScenarioSpec(
            family="round-robin",
            params={"n": 3},
            perturbations=(
                {"kind": "noise", "rate": 0.2, "seed": 1},
                {"kind": "stutter", "rate": 0.2, "seed": 2},
            ),
        )
        description = noisy.build().description
        assert description.index("stutter") < description.index("noise")
        assert base.build().generate(50).steps != noisy.build().generate(50).steps

    def test_malformed_value_becomes_configuration_error(self):
        spec = ScenarioSpec(family="set-timely", params={"n": 4, "p_set": ["x"], "q_set": [1]})
        with pytest.raises(ConfigurationError, match="scenario family 'set-timely'.*'x'"):
            spec.build()
        with pytest.raises(ConfigurationError, match="'set-timely'"):
            ScenarioSpec(family="set-timely", params={"n": None, "p_set": [1], "q_set": [1]}).build()

    def test_builder_configuration_error_passes_through(self):
        spec = ScenarioSpec(family="set-timely", params={"n": 4, "p_set": [9], "q_set": [1]})
        with pytest.raises(ConfigurationError) as excinfo:
            spec.build()
        assert str(excinfo.value) == "process 9 outside Πn = {1..4}"
