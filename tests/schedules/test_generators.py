"""Tests for the schedule generators and their structural guarantees."""

import hashlib

import pytest

from repro.core.timeliness import analyze_timeliness
from repro.errors import ConfigurationError
from repro.runtime.crash import CrashPattern
from repro.schedules.adversary import CarrierRotationAdversary, EventuallySynchronousGenerator
from repro.schedules.random_schedule import RandomGenerator
from repro.schedules.round_robin import RoundRobinGenerator
from repro.schedules.set_timely import SetTimelyGenerator


class TestRoundRobin:
    def test_cycles_in_order(self):
        generator = RoundRobinGenerator(4)
        assert generator.generate(9).steps == (1, 2, 3, 4, 1, 2, 3, 4, 1)

    def test_crashed_processes_skipped(self):
        generator = RoundRobinGenerator(3, crash_pattern=CrashPattern.initial_crashes(3, {2}))
        schedule = generator.generate(6)
        assert 2 not in schedule.participants()
        assert schedule.faulty_hint == frozenset({2})

    def test_custom_order_and_validation(self):
        generator = RoundRobinGenerator(3, order=(3, 1))
        assert generator.generate(4).steps == (3, 1, 3, 1)
        with pytest.raises(ConfigurationError):
            RoundRobinGenerator(3, order=(1, 1))
        with pytest.raises(ConfigurationError):
            RoundRobinGenerator(3, order=(4,))

    def test_guarantee(self):
        guarantee = RoundRobinGenerator(3).guarantee()
        assert guarantee.bound == 3
        assert guarantee.p_set == frozenset({1, 2, 3})


class TestRandomGenerator:
    def test_deterministic_given_seed(self):
        a = RandomGenerator(4, seed=9).generate(50)
        b = RandomGenerator(4, seed=9).generate(50)
        assert a.steps == b.steps

    def test_different_seeds_differ(self):
        assert RandomGenerator(4, seed=1).generate(50).steps != RandomGenerator(4, seed=2).generate(50).steps

    def test_respects_crash_pattern(self):
        generator = RandomGenerator(3, seed=3, crash_pattern=CrashPattern.crashes_at(3, {1: 10}))
        schedule = generator.generate(200)
        assert 1 not in schedule.steps[10:]

    def test_weights(self):
        generator = RandomGenerator(2, seed=4, weights={2: 0.0})
        assert set(generator.generate(30).steps) == {1}
        with pytest.raises(ConfigurationError):
            RandomGenerator(2, weights={1: 0.0, 2: 0.0})
        with pytest.raises(ConfigurationError):
            RandomGenerator(2, weights={5: 1.0})


class TestSetTimelyGenerator:
    def test_guarantee_holds_on_prefixes(self):
        generator = SetTimelyGenerator(n=5, p_set={1, 2}, q_set={3, 4, 5}, bound=3, seed=1)
        guarantee = generator.guarantee()
        for length in (200, 2000, 8000):
            schedule = generator.generate(length)
            witness = analyze_timeliness(schedule, guarantee.p_set, guarantee.q_set)
            assert witness.minimal_bound <= guarantee.bound

    def test_individual_members_not_timely(self):
        generator = SetTimelyGenerator(n=4, p_set={1, 2}, q_set={3, 4}, bound=3, seed=2)
        short = generator.generate(500)
        long = generator.generate(5000)
        for member in (1, 2):
            assert (
                analyze_timeliness(long, {member}, {3, 4}).minimal_bound
                > analyze_timeliness(short, {member}, {3, 4}).minimal_bound
            )

    def test_every_correct_process_steps(self):
        generator = SetTimelyGenerator(n=5, p_set={1, 2}, q_set={3, 4, 5}, bound=3, seed=3)
        schedule = generator.generate(4000)
        assert schedule.participants() == frozenset(range(1, 6))

    def test_crash_pattern_respected(self):
        crash = CrashPattern.initial_crashes(5, {5})
        generator = SetTimelyGenerator(n=5, p_set={1, 2}, q_set={1, 2, 3}, bound=3, seed=4, crash_pattern=crash)
        schedule = generator.generate(3000)
        assert 5 not in schedule.participants()

    def test_all_p_crashed_rejected(self):
        with pytest.raises(ConfigurationError):
            SetTimelyGenerator(
                n=4, p_set={1, 2}, q_set={3, 4}, crash_pattern=CrashPattern.initial_crashes(4, {1, 2})
            )

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            SetTimelyGenerator(n=4, p_set=set(), q_set={1})
        with pytest.raises(ConfigurationError):
            SetTimelyGenerator(n=4, p_set={1}, q_set={2}, bound=1)
        with pytest.raises(ConfigurationError):
            SetTimelyGenerator(n=4, p_set={9}, q_set={2})

    def test_burst_processes(self):
        generator = SetTimelyGenerator(
            n=4, p_set={1, 2}, q_set={1, 2, 3}, bound=3, seed=6,
            burst_set={4}, burst_base=50, burst_growth=20,
        )
        schedule = generator.generate(4000)
        # The guarantee still holds ...
        assert analyze_timeliness(schedule, {1, 2}, {1, 2, 3}).minimal_bound <= 3
        # ... but P is not timely with respect to the bursty process.
        assert analyze_timeliness(schedule, {1, 2}, {4}).minimal_bound > 20

    def test_burst_in_q_rejected(self):
        with pytest.raises(ConfigurationError):
            SetTimelyGenerator(n=4, p_set={1}, q_set={2, 4}, burst_set={4}, burst_base=10)


class TestSetTimelyStreamEquivalence:
    # The generated stream-vs-oracle and no-step-after-crash checks live in
    # tests/conformance/test_family_conformance.py.
    def test_mid_phase_carrier_crash_rotates(self):
        # Process 1 carries the first phase and crashes at step 3; the
        # rest of the phase goes to process 2.
        generator = SetTimelyGenerator(
            n=4, p_set={1, 2}, q_set={1, 2, 3}, seed=1,
            crash_pattern=CrashPattern.crashes_at(4, {1: 3}),
        )
        steps = list(generator.compile(40).steps)
        assert [index for index, pid in enumerate(steps) if pid == 1] == [0]
        assert steps[3] == 2

    def test_burst_cut_at_crash_step(self):
        generator = SetTimelyGenerator(
            n=5, p_set={1, 2}, q_set={1, 2, 3}, seed=1,
            burst_set={5}, burst_base=30,
            crash_pattern=CrashPattern.crashes_at(5, {5: 40}),
        )
        steps = list(generator.compile(120).steps)
        assert [index for index, pid in enumerate(steps) if pid == 5] == list(range(10, 40))

    def test_e2_all_fillers_crashed_scenario_digest(self):
        # E2's n=5, t=4, k=3 run with crashes {4, 5} (seed 11): P = {1, 2, 3},
        # so both fillers are dead from step 0.  The digest was recorded
        # with the full filler-attempt loop.
        from repro.analysis.experiment import detector_campaign_spec
        from repro.scenarios.spec import build_generator

        (params,) = [
            run
            for run in detector_campaign_spec(horizon=60_000, seed=11).runs
            if (run["n"], run["t"], run["k"]) == (5, 4, 3) and set(run["crashes"]) == {4, 5}
        ]
        compiled = build_generator(params).compile(60_000)
        assert hashlib.sha256(bytes(compiled.steps)).hexdigest() == (
            "6a82080b92cd857497b96c7ba37d281aca271499afe79de5a34b5adba404bdcf"
        )


class TestCarrierRotationAdversary:
    def test_carrier_set_timely_but_subsets_are_not(self):
        adversary = CarrierRotationAdversary(n=3, carriers={1, 2})
        schedule = adversary.generate(6000)
        assert analyze_timeliness(schedule, {1, 2}, {1, 2, 3}).minimal_bound <= adversary.guarantee().bound
        for subset in ({1}, {2}, {3}, {1, 3}, {2, 3}):
            if frozenset({1, 2}) <= frozenset(subset):
                continue
            witness = analyze_timeliness(schedule, subset, {1, 2, 3})
            assert witness.minimal_bound > 10, subset

    def test_everyone_correct(self):
        adversary = CarrierRotationAdversary(n=4, carriers={1, 2, 3})
        schedule = adversary.generate(5000)
        assert schedule.participants() == frozenset({1, 2, 3, 4})
        assert adversary.faulty == frozenset()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CarrierRotationAdversary(n=3, carriers=set())
        with pytest.raises(ConfigurationError):
            CarrierRotationAdversary(n=3, carriers={7})
        with pytest.raises(ConfigurationError):
            CarrierRotationAdversary(
                n=3, carriers={1}, crash_pattern=CrashPattern.initial_crashes(3, {1})
            )

    def test_starved_sets_claim_is_text(self):
        assert "carriers" in CarrierRotationAdversary(n=3, carriers={1, 2}).starved_sets_claim()


class TestEventuallySynchronous:
    def test_round_robin_after_chaos(self):
        generator = EventuallySynchronousGenerator(n=3, chaos_steps=30, seed=8)
        schedule = generator.generate(300)
        tail = schedule.suffix(30)
        # After the chaotic prefix every process appears once per 3 steps.
        assert analyze_timeliness(tail, {1}, {2, 3}).minimal_bound <= 3

    def test_guarantee_covers_whole_schedule(self):
        generator = EventuallySynchronousGenerator(n=3, chaos_steps=50, seed=9)
        guarantee = generator.guarantee()
        schedule = generator.generate(1000)
        witness = analyze_timeliness(schedule, guarantee.p_set, guarantee.q_set)
        assert witness.minimal_bound <= guarantee.bound
