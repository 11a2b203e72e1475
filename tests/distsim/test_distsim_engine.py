"""Engine-level invariants of the message-passing discrete-event tier.

These tests pin the determinism contract of :mod:`repro.distsim.engine` at
the level of the engine's activation arrays — the conformance suite
(``tests/conformance/test_timeline_conformance.py``) then pins the
*reduction* of those activations to compiled schedules.
"""

import pytest

from repro.distsim import latency_from_params, run_timeline
from repro.distsim.engine import (
    BroadcastPolicy,
    DistConfig,
    FailoverPolicy,
    LossWindow,
    MessagePolicy,
    Outage,
    PartitionWindow,
    Recurrence,
    TickSpec,
    TimelineEngine,
    calibrated_crash_pattern,
)
from repro.errors import ConfigurationError
from repro.scenarios.spec import build_generator


def sticky_config(n=3, seed=0, **overrides):
    ticks = {n: TickSpec(interval=8)}
    base = dict(
        n=n,
        seed=seed,
        ticks=ticks,
        policy=FailoverPolicy(coordinator=n, replicas=tuple(range(1, n))),
        latency=latency_from_params({"latency": "constant", "latency_scale": 2}),
    )
    base.update(overrides)
    return DistConfig(**base)


def activations(engine):
    """The engine's recorded activations as ``(time, pid, src, send_time)`` rows."""
    return list(zip(engine.times, engine.pids, engine.srcs, engine.send_times))


class ReversedFanout(MessagePolicy):
    """Process 3 sends to 2 and then to 1 on every tick; nobody else sends."""

    def targets(self, pid, tick_index):
        return (2, 1) if pid == 3 else ()

    def describe(self):
        return "reversed-fanout"


class TestEventOrder:
    def test_same_instant_events_activate_in_scheduling_order(self):
        # The tick at 4 re-arms the clock for 8 and then sends to 2 and 1,
        # which arrive at 8 too: all three activate at 8 in the order they
        # were scheduled — not by kind or by process id.
        config = DistConfig(
            n=3,
            ticks={3: TickSpec(interval=4)},
            policy=ReversedFanout(),
            latency=latency_from_params({"latency": "constant", "latency_scale": 4}),
        )
        engine = TimelineEngine(config)
        assert engine.advance(5) == 5
        assert activations(engine) == [
            (4, 3, 0, -1),
            (8, 3, 0, -1),
            (8, 2, 3, 4),
            (8, 1, 3, 4),
            (12, 3, 0, -1),
        ]

    def test_crash_beats_first_tick_at_the_same_instant(self):
        # Process 1's first tick falls exactly at its crash instant: from
        # crash_times[1] on it never activates, first tick included.
        config = DistConfig(
            n=3, ticks={1: TickSpec(8), 2: TickSpec(8)}, crash_times={1: 8}
        )
        engine = TimelineEngine(config)
        engine.advance(4)
        assert activations(engine) == [
            (8, 2, 0, -1), (16, 2, 0, -1), (24, 2, 0, -1), (32, 2, 0, -1)
        ]
        assert engine.crash_index == {1: 0}
        assert calibrated_crash_pattern(config).crash_steps == {1: 0}

    def test_advance_stops_right_after_the_limit(self):
        # The 2nd activation is a tick whose request is counted as sent; the
        # delivery it scheduled is not popped until the engine advances.
        engine = TimelineEngine(sticky_config())
        assert engine.advance(2) == 2
        assert activations(engine) == [(8, 3, 0, -1), (10, 1, 3, 8)]
        assert (engine.sent, engine.delivered) == (1, 1)
        assert engine.advance(3) == 3
        assert (engine.sent, engine.delivered) == (2, 1)
        assert engine.advance(3) == 3  # already there: nothing runs
        assert engine.advance(4) == 4
        assert activations(engine)[2:] == [(16, 3, 0, -1), (18, 1, 3, 16)]


class TestValidation:
    def test_tick_spec_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            TickSpec(interval=0)
        with pytest.raises(ConfigurationError):
            TickSpec(interval=4, jitter=1.5)
        with pytest.raises(ConfigurationError):
            TickSpec(interval=4, arrival_alpha=-1)

    def test_recurrence_covers_one_shot_and_recurring(self):
        one_shot = Recurrence(start=10, duration=5)
        assert not one_shot.covers(9)
        assert one_shot.covers(10) and one_shot.covers(14)
        assert not one_shot.covers(15)
        recurring = Recurrence(start=10, duration=5, period=20)
        # The window recurs forever: [10,15), [30,35), [50,55), ...
        for cycle in range(5):
            base = 10 + 20 * cycle
            assert recurring.covers(base) and recurring.covers(base + 4)
            assert not recurring.covers(base + 5)
        assert not recurring.covers(9)

    def test_recurring_duration_must_fit_period(self):
        with pytest.raises(ConfigurationError):
            Recurrence(start=0, duration=20, period=20)

    def test_config_rejects_bad_members(self):
        with pytest.raises(ConfigurationError):
            DistConfig(n=0)
        with pytest.raises(ConfigurationError):
            DistConfig(n=3, ticks={7: TickSpec(interval=4)})
        with pytest.raises(ConfigurationError):
            DistConfig(n=3, outages=(Outage(pid=9, start=0, duration=5),))
        with pytest.raises(ConfigurationError):
            DistConfig(n=3, crash_times={1: -5})
        with pytest.raises(ConfigurationError):
            LossWindow(start=0, duration=10, rate=1.5)

    def test_latency_from_params_validation(self):
        with pytest.raises(ConfigurationError):
            latency_from_params({"latency": "no-such-model"})
        with pytest.raises(ConfigurationError):
            latency_from_params({"latency": "constant", "latency_scale": 0})
        with pytest.raises(ConfigurationError):
            latency_from_params({"latency": "pareto", "latency_alpha": 0})


class TestLatencyBinding:
    def test_only_an_unmodulated_constant_model_has_a_fixed_delay(self):
        assert latency_from_params({"latency": "constant", "latency_scale": 3}).fixed_delay() == 3
        diurnal = {"latency_period": 100, "latency_amplitude": 0.5}
        assert latency_from_params({"latency": "constant", **diurnal}).fixed_delay() == 0
        for name in ("uniform", "exponential", "pareto"):
            assert latency_from_params({"latency": name}).fixed_delay() == 0

    def test_constant_latency_draws_no_channel_stream(self):
        engine = TimelineEngine(sticky_config())
        engine.advance(300)
        assert engine.delivered > 0
        assert not engine._latency_rngs
        for src, time, send_time in zip(engine.srcs, engine.times, engine.send_times):
            if src:
                assert time - send_time == 2

    def test_sampling_latency_still_draws_per_channel(self):
        config = sticky_config(latency=latency_from_params({"latency": "uniform"}))
        engine = TimelineEngine(config)
        engine.advance(300)
        assert engine._latency_rngs


class TestDeterminism:
    def test_identical_seeds_identical_records(self):
        config = sticky_config()
        first = TimelineEngine(config)
        first.advance(1)
        runs = []
        for _ in range(2):
            engine = TimelineEngine(config)
            engine.advance(400)
            runs.append(activations(engine))
        assert runs[0] == runs[1]
        assert activations(first) == runs[0][:1]

    def test_different_seed_different_stream(self):
        params = {"schedule": "dist-heavy-tail", "n": 4}
        a = run_timeline(build_generator({**params, "seed": 1}), 400)
        b = run_timeline(build_generator({**params, "seed": 2}), 400)
        assert a.step_pids() != b.step_pids()

    def test_records_are_time_ordered_with_dense_indices(self):
        engine = TimelineEngine(sticky_config())
        assert engine.advance(300) == 300
        assert {len(engine.pids), len(engine.srcs), len(engine.send_times)} == {300}
        times = engine.times
        assert all(a <= b for a, b in zip(times, times[1:]))


class TestCausality:
    def test_no_delivery_before_send(self):
        params = {"schedule": "dist-heavy-tail", "n": 4, "seed": 5}
        timeline = run_timeline(build_generator(params), 800)
        delivers = [r for r in timeline.records if r.cause == "deliver"]
        assert delivers, "broadcast workload must deliver messages"
        for record in delivers:
            assert record.send_time >= 0
            # Latencies are at least one time unit: nothing arrives at or
            # before the instant it was sent.
            assert record.time > record.send_time

    def test_tick_records_carry_no_message_provenance(self):
        params = {"schedule": "dist-rolling-restart", "n": 3, "seed": 2}
        timeline = run_timeline(build_generator(params), 400)
        for record in timeline.records:
            if record.cause == "tick":
                assert record.src == 0 and record.send_time == -1


class TestCrashes:
    def test_crashed_process_never_steps_again(self):
        params = {
            "schedule": "dist-heavy-tail", "n": 4, "seed": 3,
            "crash_times": {2: 150},
        }
        generator = build_generator(params)
        crash_step = generator.crash_pattern.crash_steps[2]
        timeline = run_timeline(generator, 600)
        pids = timeline.step_pids()
        assert 2 not in pids[crash_step:]
        assert 2 in pids[:crash_step]
        assert timeline.crash_steps == {2: crash_step}

    def test_calibration_is_deterministic(self):
        config = sticky_config(crash_times={1: 200})
        assert (
            calibrated_crash_pattern(config).crash_steps
            == calibrated_crash_pattern(config).crash_steps
        )

    def test_all_crashed_timeline_ends_with_clear_error(self):
        params = {
            "schedule": "dist-heavy-tail", "n": 3, "seed": 0,
            "crash_times": {1: 100, 2: 120, 3: 140},
        }
        with pytest.raises(ConfigurationError, match="no alive process left"):
            run_timeline(build_generator(params), 10_000)
        # Prefixes that end before the last crash still reduce fine.
        short = run_timeline(build_generator(params), 10)
        assert len(short) == 10


    def test_stall_after_the_last_crash_fails_only_the_prefixes_that_reach_it(self):
        # Replica 1 crashes at 5; from 100 on the coordinator is down for
        # good, so after 20 activations every event is a stalled tick.
        # Calibration needs only the activation after the crash, and the
        # generator hands out the 20 activations before the stall error.
        params = {
            "schedule": "dist-sticky-failover", "n": 3, "seed": 0,
            "crash_times": {1: 5},
            "outages": [{"pid": 3, "start": 100, "duration": 10**9}],
        }
        generator = build_generator(params)
        assert generator.crash_pattern.crash_steps == {1: 0}
        assert len(generator.compile(20)) == 20
        assert len(generator.generate(20)) == 20
        stream = generator.stream()
        assert len([next(stream) for _ in range(20)]) == 20
        with pytest.raises(ConfigurationError, match="stalled"):
            next(stream)
        with pytest.raises(ConfigurationError, match="stalled"):
            generator.compile(21)


class TestFaults:
    def test_partition_blocks_cross_group_messages(self):
        groups = (frozenset({1, 2}), frozenset({3}))
        window = PartitionWindow(start=0, duration=10_000, groups=groups)
        assert window.blocks(1, 3, 5)
        assert not window.blocks(1, 2, 5)
        assert not window.blocks(1, 3, 10_000)
        config = sticky_config(partitions=(window,))
        engine = TimelineEngine(config)
        engine.advance(200)
        assert engine.dropped_partition > 0

    def test_loss_window_drops_deterministically(self):
        config = sticky_config(
            loss=(LossWindow(start=0, duration=2**62, rate=0.5),)
        )
        counts = []
        for _ in range(2):
            engine = TimelineEngine(config)
            engine.advance(300)
            counts.append((engine.sent, engine.dropped_loss))
        assert counts[0] == counts[1]
        assert counts[0][1] > 0

    def test_outage_suppresses_steps_and_deliveries(self):
        config = sticky_config(
            outages=(Outage(pid=1, start=0, duration=100, period=200),)
        )
        engine = TimelineEngine(config)
        engine.advance(300)
        for time, pid, _, _ in activations(engine):
            if pid == 1:
                assert not Recurrence(start=0, duration=100, period=200).covers(time)


class TestPolicies:
    def test_broadcast_targets_everyone_else(self):
        policy = BroadcastPolicy(4)
        assert policy.targets(2, 0) == (1, 3, 4)

    def test_round_robin_failover_cycles(self):
        # Request i goes to replicas[i % len] — per request, not per epoch.
        policy = FailoverPolicy(
            coordinator=3, replicas=(1, 2), epoch=4, sticky=False
        )
        targets = [policy.targets(3, tick)[0] for tick in range(8)]
        assert targets == [1, 2, 1, 2, 1, 2, 1, 2]
        assert policy.targets(1, 0) == ()

    def test_sticky_doubling_spans_double(self):
        policy = FailoverPolicy(coordinator=3, replicas=(1, 2), epoch=2, sticky=True)
        # Eras cover 2, 4, 8, ... ticks; the primary alternates per era.
        targets = [policy.targets(3, tick)[0] for tick in range(14)]
        assert targets == [1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1]
