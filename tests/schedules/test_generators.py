"""Tests for the schedule generators and their structural guarantees."""

import hashlib
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _reference_set_timely_emit(self):
    """The set-timely stream with the full filler-attempt loop after every carrier step.

    A copy of ``SetTimelyGenerator._emit`` from before the loop stopped
    drawing once every filler had crashed (``self`` is the generator whose
    parameters it reads), with the same mid-phase crash handling: a carrier
    that has crashed is replaced before each carrier step, and a burst stops
    at its process's crash step.  The generated test below pins the current
    generator byte-identical to it.
    """
    rng = random.Random(self.seed)
    rng_random = rng.random
    getrandbits = rng.getrandbits
    crash_pattern = self.crash_pattern
    is_crashed = crash_pattern.is_crashed
    static_dead = crash_pattern.faulty if crash_pattern.is_static else None
    carriers = sorted(self.p_set)
    fillers = sorted(frozenset(range(1, self.n + 1)) - self.p_set)
    n_fillers = len(fillers)
    filler_bits = n_fillers.bit_length()
    filler_budget = self.bound - 1
    guard_limit = 4 * n_fillers + 8
    filler_cursor = 0
    step_index = 0
    phase = 0
    carrier_index = 0

    while True:
        carrier = carriers[carrier_index % len(carriers)]
        remaining = self._phase_length(phase)
        while remaining > 0:
            attempts = 0
            while is_crashed(carrier, step_index):
                carrier_index += 1
                attempts += 1
                carrier = carriers[carrier_index % len(carriers)]
                if attempts > len(carriers):
                    raise ConfigurationError(
                        "all members of P have crashed; cannot maintain the guarantee"
                    )
            yield carrier
            step_index += 1
            remaining -= 1
            emitted = 0
            guard = 0
            while emitted < filler_budget and n_fillers:
                guard += 1
                if guard > guard_limit:
                    break
                if rng_random() < 0.5:
                    draw = getrandbits(filler_bits)
                    while draw >= n_fillers:
                        draw = getrandbits(filler_bits)
                    candidate = fillers[draw]
                else:
                    candidate = fillers[filler_cursor % n_fillers]
                    filler_cursor += 1
                if (
                    candidate in static_dead
                    if static_dead is not None
                    else is_crashed(candidate, step_index)
                ):
                    continue
                yield candidate
                step_index += 1
                emitted += 1
        if self.burst_set:
            burst_length = self.burst_base + phase * self.burst_growth
            for burst_pid in sorted(self.burst_set):
                for _ in range(burst_length):
                    if is_crashed(burst_pid, step_index):
                        break
                    yield burst_pid
                    step_index += 1
        phase += 1
        carrier_index += 1


@st.composite
def set_timely_configs(draw):
    """Constructor arguments for SetTimelyGenerator, invalid ones included.

    Crash patterns are failure-free, static (crashed from step 0), dynamic,
    or crash every filler (every process outside ``P``) at static or
    dynamic steps, the case where the generator stops drawing fillers.
    """
    n = draw(st.integers(2, 8))
    pids = st.integers(1, n)
    p_set = draw(st.sets(pids, min_size=1, max_size=n))
    q_set = draw(st.sets(pids, min_size=1, max_size=n))
    fillers = sorted(set(range(1, n + 1)) - p_set)
    crash_steps = st.integers(0, 300)
    shape = draw(st.sampled_from(["none", "static", "dynamic", "fillers-gone"]))
    if shape == "static":
        crash = CrashPattern.initial_crashes(n, draw(st.sets(pids, max_size=n)))
    elif shape == "dynamic":
        crash = CrashPattern.crashes_at(
            n, draw(st.dictionaries(pids, crash_steps, max_size=n))
        )
    elif shape == "fillers-gone":
        at = {pid: draw(st.sampled_from([0, draw(crash_steps)])) for pid in fillers}
        at.update(draw(st.dictionaries(st.sampled_from(sorted(p_set)), crash_steps, max_size=1)))
        crash = CrashPattern.crashes_at(n, at)
    else:
        crash = None
    burst_pool = sorted(set(fillers) - q_set)
    burst_set = draw(st.sets(st.sampled_from(burst_pool), max_size=2)) if burst_pool else set()
    return {
        "n": n,
        "p_set": p_set,
        "q_set": q_set,
        "bound": draw(st.integers(2, 6)),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "crash_pattern": crash,
        "base_phase": draw(st.integers(1, 6)),
        "phase_growth": draw(st.integers(1, 4)),
        "burst_set": burst_set,
        "burst_base": draw(st.integers(0, 20)),
        "burst_growth": draw(st.integers(0, 10)),
    }


def _steps_or_error(produce):
    try:
        return list(produce())
    except ConfigurationError:
        return ConfigurationError


class TestSetTimelyStreamEquivalence:
    @settings(max_examples=200)
    @given(config=set_timely_configs(), length=st.integers(0, 800))
    def test_stream_matches_full_attempt_loop(self, config, length):
        expected = _steps_or_error(
            lambda: islice(_reference_set_timely_emit(SetTimelyGenerator(**config)), length)
        )
        compiled = _steps_or_error(lambda: SetTimelyGenerator(**config).compile(length).steps)
        streamed = _steps_or_error(lambda: islice(SetTimelyGenerator(**config).stream(), length))
        assert compiled == expected
        assert streamed == expected

    @settings(max_examples=200)
    @given(config=set_timely_configs(), length=st.integers(0, 800))
    def test_no_step_at_or_after_crash(self, config, length):
        try:
            generator = SetTimelyGenerator(**config)
            steps = generator.compile(length).steps
        except ConfigurationError:
            return
        crash_steps = generator.crash_pattern.crash_steps
        late = [
            (index, pid)
            for index, pid in enumerate(steps)
            if pid in crash_steps and index >= crash_steps[pid]
        ]
        assert late == []

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
