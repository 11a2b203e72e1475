"""Tests for the falsifiable properties and the certification stage."""

import pytest

from repro.errors import ConfigurationError
from repro.failure_detectors.base import FD_OUTPUT
from repro.scenarios.spec import build_generator
from repro.search import (
    AgreementSafetyProperty,
    KAntiOmegaConvergenceProperty,
    LeaderSetConvergenceProperty,
    available_properties,
    certify_schedule,
    make_property,
    make_recipe,
    property_descriptions,
    realize,
    timeliness_fitness,
    tracker_snapshots,
)

IN_MODEL = {
    "schedule": "set-timely",
    "n": 4,
    "t": 2,
    "k": 2,
    "p_set": [1, 2],
    "q_set": [1, 2, 3],
    "bound": 3,
    "seed": 0,
}


def in_model_schedule(horizon=2400):
    return realize(make_recipe(IN_MODEL, horizon))


def rotation_schedule(horizon=2400):
    """The carrier-rotation adversary — NB: certified *in-model* at (2, 3, 4).

    With carriers {1,2,3} a witness pair always exists (e.g. {1,2} w.r.t.
    {1,2,4}: a {1,2}-free run is one carrier-3 phase plus a boundary, which
    contains at most one Q-step), which is exactly why Theorem 23 applies and
    the degree-2 detector converges on it.
    """
    params = {"schedule": "carrier-rotation", "n": 4, "carriers": [1, 2, 3]}
    return build_generator(params).compile(horizon)


def out_of_model_schedule(horizon=2400):
    """Four long solo regimes: no size-(2, 3) pair is timely with a small bound.

    Every 2-set P misses at least two of the four soloists, and every 3-set Q
    contains at least one of the missed soloists, so some P-free regime holds
    a full solo run of Q-steps — the observed bound is the regime length, far
    above any reasonable certification bound.
    """
    quarter = horizon // 4
    mutations = [
        {"op": "burst", "pid": pid, "start": index * quarter, "length": quarter}
        for index, pid in enumerate((1, 2, 3, 4))
    ]
    return realize(make_recipe({"schedule": "round-robin", "n": 4}, horizon, mutations))


class TestRegistry:
    def test_registered_properties(self):
        assert available_properties() == [
            "agreement-safety",
            "k-anti-omega-convergence",
            "leader-set-convergence",
        ]

    def test_descriptions_are_one_liners(self):
        for name, description in property_descriptions().items():
            assert description, f"property {name} has no description"
            assert "\n" not in description

    def test_make_property_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_property("no-such-claim", {"n": 4, "t": 2, "k": 2})

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            KAntiOmegaConvergenceProperty(n=4, t=4, k=2)
        with pytest.raises(ConfigurationError):
            KAntiOmegaConvergenceProperty(n=4, t=2, k=5)

    def test_certification_sizes_are_k_and_t_plus_one(self):
        prop = make_property("k-anti-omega-convergence", {"n": 5, "t": 3, "k": 2})
        assert prop.certification_sizes() == (2, 4)


def screen_snapshots(prop, compiled, checkpoints):
    """The checkpoint snapshots one tracked screen run of ``prop`` derives."""
    with prop.tracked_run(compiled, prop.screen_keys) as trackers:
        return tracker_snapshots(
            trackers, prop.screen_keys, compiled.n, len(compiled), checkpoints
        )


class TestCheckpointSnapshots:
    def test_snapshot_count_and_final_state(self):
        prop = KAntiOmegaConvergenceProperty(n=4, t=2, k=2)
        compiled = in_model_schedule(1200)
        snapshots = screen_snapshots(prop, compiled, 6)
        assert len(snapshots) == 6
        # The final snapshot must equal a fresh uninstrumented full run.
        reference = prop._build_simulator()
        reference.run_fast(compiled)
        for pid in range(1, 5):
            assert snapshots[-1][pid][FD_OUTPUT] == reference.output_of(pid, FD_OUTPUT)

    def test_zero_checkpoints_rejected(self):
        prop = KAntiOmegaConvergenceProperty(n=4, t=2, k=2)
        with pytest.raises(ConfigurationError):
            screen_snapshots(prop, in_model_schedule(100), 0)

    def test_zero_length_schedule_snapshots(self):
        # Regression: a zero-step compiled buffer still yields the requested
        # number of (identical, initial-state) snapshots instead of raising.
        prop = KAntiOmegaConvergenceProperty(n=4, t=2, k=2)
        compiled = build_generator(IN_MODEL).compile(0)
        snapshots = screen_snapshots(prop, compiled, 3)
        assert len(snapshots) == 3
        assert snapshots[0] == snapshots[-1]

    def test_replica_is_rewound_not_rebuilt(self):
        prop = KAntiOmegaConvergenceProperty(n=4, t=2, k=2)
        replica = prop.replica()
        first = prop.confirm(in_model_schedule(600))
        assert prop.replica() is replica
        assert replica.step_index == 0 and not replica.observer_entries()
        assert prop.confirm(in_model_schedule(600)) == first


def all_crashed_schedule(horizon=40):
    """A prefix whose crash metadata marks every process as already faulty."""
    from repro.core.schedule import CompiledSchedule

    steps = [1 + (i % 4) for i in range(horizon)]
    return CompiledSchedule(
        n=4, steps=steps, crash_steps={1: 10, 2: 20, 3: 30, 4: 30},
        description="all crashed",
    )


class TestEmptyCorrectSet:
    """An all-crashed prefix is unjudgeable, never a counterexample.

    Regression: ``all(...)`` over an empty correct set is vacuously true, which
    used to flip the screen verdicts to violated (no candidate can ever
    stabilize) and made the k-anti-Ω confirm raise ``VerificationError``.
    """

    @pytest.mark.parametrize(
        "cls", [KAntiOmegaConvergenceProperty, LeaderSetConvergenceProperty]
    )
    def test_screen_and_confirm_not_violated(self, cls):
        compiled = all_crashed_schedule()
        prop = cls(n=4, t=2, k=2)
        screen = prop.screen(compiled, 4)
        confirm = prop.confirm(compiled)
        assert not screen.violated
        assert not confirm.violated
        assert screen.details["correct"] == []


class TestDetectorProperties:
    def test_in_model_schedule_is_not_violated(self):
        compiled = in_model_schedule()
        for cls in (KAntiOmegaConvergenceProperty, LeaderSetConvergenceProperty):
            prop = cls(n=4, t=2, k=2)
            screen = prop.screen(compiled, 8)
            confirm = prop.confirm(compiled)
            assert not screen.violated
            assert not confirm.violated
            assert 0.0 <= screen.fitness <= 1.0
            assert screen.details["all_correct_produced"]
            assert confirm.details["all_correct_produced"]
            # In-model runs stabilize well before the horizon.
            assert screen.fitness < 0.5
            assert confirm.fitness < 0.5

    def test_screen_fitness_reflects_stabilization_delay(self):
        prop = KAntiOmegaConvergenceProperty(n=4, t=2, k=2)
        stable = prop.screen(in_model_schedule(), 8)
        churning = prop.screen(
            realize(
                make_recipe(
                    IN_MODEL,
                    2400,
                    [{"op": "silence", "pids": [1, 2], "start": 200, "length": 2200}],
                )
            ),
            8,
        )
        assert churning.fitness >= stable.fitness

    def test_unjudgeable_prefix_is_not_a_violation(self):
        # 40 steps is far too short for every process to publish an output;
        # confirm must refuse to call that a counterexample.
        prop = KAntiOmegaConvergenceProperty(n=4, t=2, k=2)
        verdict = prop.confirm(in_model_schedule(40))
        assert not verdict.violated
        assert not verdict.details["all_correct_produced"]

    def test_screen_and_confirm_are_deterministic(self):
        prop = LeaderSetConvergenceProperty(n=4, t=2, k=2)
        compiled = rotation_schedule(1200)
        assert prop.screen(compiled, 6) == prop.screen(compiled, 6)
        assert prop.confirm(compiled) == prop.confirm(compiled)


class TestAgreementSafety:
    def test_safety_holds_on_benign_and_adversarial_schedules(self):
        prop = AgreementSafetyProperty(n=4, t=2, k=2)
        for compiled in (in_model_schedule(), out_of_model_schedule()):
            screen = prop.screen(compiled, 8)
            confirm = prop.confirm(compiled)
            assert not screen.violated
            assert not confirm.violated
            assert screen.details["valid"]
            assert screen.details["agreement"]
            assert screen.details["distinct_decisions"] <= 2

    def test_fitness_rewards_starved_termination(self):
        prop = AgreementSafetyProperty(n=4, t=2, k=2)
        # At a horizon this short nobody decides: the liveness near-miss.
        starved = prop.screen(in_model_schedule(120), 4)
        decided = prop.screen(in_model_schedule(2400), 4)
        assert starved.fitness >= decided.fitness


class TestCertification:
    def test_in_model_schedule_certifies(self):
        report = certify_schedule(in_model_schedule(), 2, 3, certify_bound=12, max_faulty=2)
        assert report.in_model
        assert report.crash_ok
        assert report.observed_bound <= 12
        assert "certified" in report.reason

    def test_rotation_adversary_is_in_model_at_these_sizes(self):
        # Membership is existential over (P, Q): the rotation adversary still
        # admits a witness at (2, 3, 4) — the reason the detector converges
        # on it (see rotation_schedule's docstring).
        report = certify_schedule(rotation_schedule(), 2, 3, certify_bound=12, max_faulty=2)
        assert report.in_model

    def test_solo_regimes_are_out_of_model(self):
        report = certify_schedule(
            out_of_model_schedule(), 2, 3, certify_bound=12, max_faulty=2
        )
        assert not report.in_model
        assert report.crash_ok
        assert report.observed_bound > 12
        assert "out of model" in report.reason

    def test_crash_budget_is_enforced(self):
        mutations = [{"op": "crash", "pid": pid, "at": 0} for pid in (2, 3, 4)]
        compiled = realize(make_recipe(IN_MODEL, 600, mutations))
        report = certify_schedule(compiled, 2, 3, certify_bound=50, max_faulty=2)
        assert not report.crash_ok
        assert not report.in_model
        assert "crashes exceed" in report.reason

    def test_payload_round_trips_to_json_types(self):
        payload = certify_schedule(
            in_model_schedule(), 2, 3, certify_bound=12, max_faulty=2
        ).to_payload()
        import json

        assert json.loads(json.dumps(payload)) == payload

    def test_timeliness_fitness_orders_schedules(self):
        benign = timeliness_fitness(in_model_schedule(), 2, 3)
        adversarial = timeliness_fitness(out_of_model_schedule(), 2, 3)
        assert 0.0 <= benign < adversarial <= 1.0
