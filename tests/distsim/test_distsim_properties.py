"""Seeded-random property tests for the distsim tier and its analyses.

Invariants pinned here (over randomized but deterministically seeded
configurations, per the conventions of the core property suites):

* event-order determinism — identical seeds replay byte-identical timelines;
* causality — no message is delivered at or before its send instant;
* crash consistency — emitted schedules never step a crashed process and
  carry crash metadata matching the calibrated pattern;
* ``predicted_bound`` is monotone and the observed set bound never exceeds it
  (soundness of the time-domain prediction);
* ``timeliness_report`` is monotone in the latency bound: slower constant
  networks can only worsen the observed set bound;
* ``DistConfig.seed_free`` is sound — whenever it holds, every seed records
  the same timeline — and each of its three clauses is needed.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.distsim import (
    DistConfig,
    DistSimGenerator,
    available_latency_models,
    latency_from_params,
    predicted_bound,
    run_timeline,
    timeliness_report,
)
from repro.distsim.engine import (
    BroadcastPolicy,
    FailoverPolicy,
    LossWindow,
    Outage,
    PartitionWindow,
    TickSpec,
)
from repro.errors import ConfigurationError
from repro.scenarios.spec import build_generator

FAMILIES = (
    "dist-heavy-tail",
    "dist-diurnal",
    "dist-correlated-failures",
    "dist-rolling-restart",
)


def random_params(rng):
    family = rng.choice(FAMILIES)
    params = {
        "schedule": family,
        "n": rng.randint(3, 6),
        "seed": rng.randint(0, 10_000),
    }
    roll = rng.random()
    if roll < 0.3:
        params["loss_rate"] = rng.choice([0.1, 0.3])
    elif roll < 0.5:
        params["latency"] = rng.choice(["uniform", "pareto", "exponential"])
    return params


class TestDeterminismProperty:
    def test_identical_seeds_replay_identically(self):
        rng = random.Random(1234)
        for _ in range(12):
            params = random_params(rng)
            a = run_timeline(build_generator(params), 300)
            b = run_timeline(build_generator(params), 300)
            assert a.records == b.records, params
            assert a.stats == b.stats, params
            assert a.crash_steps == b.crash_steps, params


class TestCausalityProperty:
    def test_no_delivery_before_send(self):
        rng = random.Random(99)
        for _ in range(10):
            params = random_params(rng)
            timeline = run_timeline(build_generator(params), 300)
            for record in timeline.records:
                if record.cause == "deliver":
                    assert record.time > record.send_time >= 0, (params, record)


class TestCrashConsistencyProperty:
    def test_emitted_schedules_respect_crash_metadata(self):
        rng = random.Random(4321)
        for _ in range(10):
            params = random_params(rng)
            n = params["n"]
            victim = rng.randint(1, n - 1)
            params["crash_times"] = {str(victim): rng.randint(100, 600)}
            generator = build_generator(params)
            try:
                timeline = run_timeline(generator, 500)
            except ConfigurationError:
                # The crash can starve the run before 500 steps (e.g. the
                # victim was load-bearing); a shorter prefix must still work.
                timeline = run_timeline(build_generator(params), 50)
            assert set(timeline.crash_steps) == {victim}
            crash_step = timeline.crash_steps[victim]
            pids = timeline.step_pids()
            assert victim not in pids[crash_step:], params
            # The compiled hint convention: crashed processes appear in the
            # faulty hint exactly from their crash step on.
            from repro.distsim import compile_timeline

            compiled = compile_timeline(timeline)
            if crash_step < len(compiled):
                assert victim in compiled.crashed_by(len(compiled))
            assert victim not in compiled.crashed_by(max(crash_step - 1, 0))


class TestPredictedBound:
    def test_monotone_in_gap_arguments(self):
        rng = random.Random(7)
        for _ in range(50):
            p_gap = rng.randint(0, 400)
            q_gap = rng.randint(1, 40)
            total = rng.randint(1, 500)
            base = predicted_bound(p_gap, q_gap, total)
            # Wider P-gaps can only raise the prediction...
            assert predicted_bound(p_gap + rng.randint(1, 100), q_gap, total) >= base
            # ...denser Q-steps (smaller min gap) can only raise it too.
            if q_gap > 1:
                assert predicted_bound(p_gap, q_gap - 1, total) >= base

    def test_degenerate_arguments(self):
        # No Q-gap information: only the trivial total_q + 1 cap applies.
        assert predicted_bound(100, 0, 7) == 8
        assert predicted_bound(0, 5, 7) == 2
        with pytest.raises(ConfigurationError):
            predicted_bound(-1, 5, 7)
        with pytest.raises(ConfigurationError):
            predicted_bound(5, -1, 7)

    def test_observed_set_bound_never_exceeds_prediction(self):
        rng = random.Random(2026)
        for _ in range(10):
            params = random_params(rng)
            n = params["n"]
            timeline = run_timeline(build_generator(params), 600)
            report = timeliness_report(timeline, list(range(1, n)), [n])
            assert report.set_bound <= report.predicted, params


class TestLatencyMonotonicity:
    def test_constant_latency_sweep_is_monotone(self):
        previous = None
        for scale in (2, 4, 8, 16, 32):
            params = {
                "schedule": "dist-sticky-failover",
                "n": 3,
                "seed": 0,
                "latency": "constant",
                "latency_scale": scale,
            }
            timeline = run_timeline(build_generator(params), 1600)
            report = timeliness_report(timeline, [1, 2], [3])
            assert report.set_bound <= report.predicted
            if previous is not None:
                assert report.set_bound >= previous, scale
            previous = report.set_bound


# ----------------------------------------------------------------------
# The seed-free predicate
# ----------------------------------------------------------------------

#: One sampled variant of each clause: a tick that draws its gap (jitter,
#: Pareto arrivals, diurnal stretch), a latency that draws its delay (every
#: non-constant model, a diurnal constant one) and a lossy window.
SAMPLED_TICKS = (
    {"jitter": 0.2},
    {"arrival_alpha": 1.5},
    {"period": 200, "amplitude": 1.0},
)
SAMPLED_LATENCIES = tuple(
    {"latency": name} for name in available_latency_models() if name != "constant"
) + ({"latency": "constant", "latency_period": 300, "latency_amplitude": 1.5},)


#: E12's ``sticky / constant`` arm, with a loss window that never drops.
E12_CONSTANT = build_generator(
    {
        "schedule": "dist-sticky-failover",
        "n": 3,
        "loss": [{"start": 0, "duration": 100, "rate": 0.0}],
    }
).config


def _loss_window(rate):
    return LossWindow(start=50, duration=400, period=0, rate=rate)


@st.composite
def dist_configs(draw):
    """A :class:`DistConfig` over every engine feature, and whether it samples.

    Each of the three clauses is drawn either seed-free or from the full
    range, so both sides of the predicate come up often.  The flag is True
    when the draw picked no sampled tick, latency or lossy window.
    """
    n = draw(st.integers(3, 5))
    balance = draw(st.sampled_from(["broadcast", "sticky", "round-robin"]))
    if balance == "broadcast":
        policy, tickers = BroadcastPolicy(n), range(1, n + 1)
    else:
        policy = FailoverPolicy(
            coordinator=n,
            replicas=tuple(range(1, n)),
            epoch=draw(st.integers(1, 4)),
            sticky=balance == "sticky",
        )
        tickers = (n,)
    tick_choices = [{}, *SAMPLED_TICKS] if draw(st.booleans()) else [{}]
    tick_draws = {pid: draw(st.sampled_from(tick_choices)) for pid in tickers}
    ticks = {
        pid: TickSpec(interval=draw(st.integers(1, 12)), **sampled)
        for pid, sampled in tick_draws.items()
    }
    latency_draw = None
    latency = None
    if draw(st.booleans()):
        latency_choices = [{"latency": "constant"}]
        if draw(st.booleans()):
            latency_choices += SAMPLED_LATENCIES
        latency_draw = draw(st.sampled_from(latency_choices))
        latency = latency_from_params(
            {"latency_scale": draw(st.integers(1, 4)), **latency_draw}
        )
    rates = [0.0, 0.3] if draw(st.booleans()) else [0.0]
    loss = tuple(
        _loss_window(draw(st.sampled_from(rates))) for _ in range(draw(st.integers(0, 2)))
    )
    seed_free = (
        not any(tick_draws.values())
        and latency_draw in (None, {"latency": "constant"})
        and not any(window.rate for window in loss)
    )
    partitions = ()
    if draw(st.booleans()):
        partitions = (
            PartitionWindow(
                start=draw(st.integers(0, 200)), duration=150, period=500,
                groups=(frozenset({1, 2}), frozenset(range(3, n + 1))),
            ),
        )
    outages = ()
    if draw(st.booleans()):
        outages = (
            Outage(
                start=draw(st.integers(0, 300)), duration=100, period=400,
                pid=draw(st.integers(1, n)),
            ),
        )
    crash_times = {}
    if draw(st.booleans()):
        crash_times = {draw(st.integers(1, n - 1)): draw(st.integers(0, 800))}
    config = DistConfig(
        n=n,
        seed=draw(st.integers(0, 10_000)),
        ticks=ticks,
        policy=policy,
        latency=latency,
        outages=outages,
        partitions=partitions,
        loss=loss,
        crash_times=crash_times,
    )
    return config, seed_free


def _recorded(config, length=300):
    """The timeline's four arrays, message stats and crash steps (or the error type)."""
    try:
        timeline = run_timeline(DistSimGenerator(config, "drawn"), length)
    except ConfigurationError as error:  # ended or stalled before `length`
        return type(error)
    return (
        timeline.pids.tobytes(),
        timeline.times.tobytes(),
        timeline.srcs.tobytes(),
        timeline.send_times.tobytes(),
        timeline.stats,
        dict(timeline.crash_steps),
    )


def _single_clause_breaks(config):
    """Copies of ``config`` that each make exactly one clause draw a sample."""
    ticker, spec = next(iter(config.ticks.items()))
    for sampled in SAMPLED_TICKS:
        yield replace(config, ticks={**config.ticks, ticker: replace(spec, **sampled)})
    for sampled in SAMPLED_LATENCIES:
        yield replace(config, latency=latency_from_params(sampled))
    yield replace(config, loss=config.loss + (_loss_window(0.3),))


class TestSeedFreePredicate:
    @given(drawn=dist_configs(), other_seed=st.integers(0, 10_000))
    @example(drawn=(E12_CONSTANT, True), other_seed=97)
    def test_seed_free_configs_record_one_timeline(self, drawn, other_seed):
        config, seed_free = drawn
        assert config.seed_free() == seed_free, config.describe()
        if not seed_free:
            return
        reseeded = replace(config, seed=other_seed)
        assert reseeded.seed_free()
        assert _recorded(reseeded) == _recorded(config)
        for broken in _single_clause_breaks(config):
            assert not broken.seed_free(), broken.describe()
