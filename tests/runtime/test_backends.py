"""Backend conformance: every execution backend is differentially pinned.

The conformance contract (:class:`repro.runtime.backends.Backend`) says a
backend may change *how* a batch is driven but nothing observable: outputs,
tracker change sequences, halting, per-process step accounting, register
values and operation counts, and the per-replica ``RunResult`` must be
byte-identical to the reference backend.  This suite enforces that contract
*generically*: the sweep below runs over every registered backend, so a new
backend joins the differential matrix by calling ``register_backend`` — no
test changes needed.

Two sweeps pin the contract:

* the randomized scenario sweep (50+ seeded combos reusing the scenario
  families and workload generators from the batch/kernel suites) runs every
  combo through the reference backend and the backend under test and asserts
  byte-identity — including the vector backend's transparent fallback lane
  for workloads it cannot lower;
* the vector-native sweep drives the lowered automata (anti-Ω, trivial
  k-set agreement, decision polls, idle churn) with ``require_lowering=True``
  so a silent fallback cannot mask a lowering bug.

Edge cases (batch of 1, empty batch, empty schedule, crash at step 0, a
``max_steps`` cap, chunk-straddling batches, mid-batch single-writer
violations, strict mode) are asserted
identical across backends as well.  The ``auto`` planner's two decisions and
its loud, recorded fallback are pinned through ``execute_batch``.
"""

import logging
import random

import pytest

import test_batch
from repro.agreement.consensus import DecisionPollAutomaton
from repro.agreement.kset import DECISION
from repro.agreement.trivial import TrivialKSetAgreementAutomaton
from repro.core.schedule import CompiledSchedule
from repro.errors import ConfigurationError, RegisterError, SimulationError
from repro.failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    constant_timeout_policy,
    doubling_timeout_policy,
    make_anti_omega_algorithm,
    max_accusation_statistic,
    median_accusation_statistic,
    min_accusation_statistic,
    paper_accusation_statistic,
    paper_timeout_policy,
)
from repro.failure_detectors.base import FD_OUTPUT
from repro.memory.registers import RegisterFile
from repro.runtime import vector_backend
from repro.runtime.automaton import IdleAutomaton
from repro.runtime import backends as backends_module
from repro.runtime.backends import (
    Backend,
    ReferenceBackend,
    available_backends,
    backend_names,
    get_backend,
    plan_backend_for_classes,
    register_backend,
    _BACKENDS,
)
from repro.runtime.kernel import FAST, FAST_TRACED, execute_batch
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator
from repro.runtime.vector_backend import VectorBackend
from repro.scenarios.spec import build_generator

STATISTICS = [
    paper_accusation_statistic,
    min_accusation_statistic,
    max_accusation_statistic,
    median_accusation_statistic,
]
POLICIES = [paper_timeout_policy, doubling_timeout_policy, constant_timeout_policy]


@pytest.fixture(params=sorted(backend_names()))
def backend_name(request):
    """Every registered backend; unavailable ones skip (e.g. vector sans numpy)."""
    name = request.param
    if not get_backend(name).available():
        pytest.skip(f"backend {name!r} unavailable in this environment")
    return name


def observable(sim):
    """Everything a backend may not change, in one comparable value."""
    arena = sim.registers.arena_view()
    return (
        tuple(dict(sim._states[p].automaton.outputs) for p in range(1, sim.n + 1)),
        tuple(sim._states[p].steps_taken for p in range(1, sim.n + 1)),
        sim.halted_processes(),
        sim._step_index,
        list(arena.values),
        list(arena.read_counts),
        list(arena.write_counts),
    )


def result_view(result):
    return (
        result.outputs,
        result.steps_executed,
        result.stopped_early,
        result.halted_processes,
        result.executed_schedule.steps,
    )


# ----------------------------------------------------------------------
# Workload builders for the sweeps
# ----------------------------------------------------------------------

def _anti_omega_replica(n, t, k, statistic, policy, tracked):
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = make_anti_omega_algorithm(
        n=n, t=t, k=k, accusation_statistic=statistic, timeout_policy=policy
    )
    sim = Simulator(n=n, automata=automata, registers=registers)
    tracker = None
    if tracked:
        tracker = OutputTracker(key=FD_OUTPUT)
        sim.add_observer(tracker)
    return sim, tracker


def _trivial_replica(n, t, k, base, tracked, strict=False):
    automata = {
        pid: TrivialKSetAgreementAutomaton(pid, n, t=t, k=k, input_value=base + pid)
        for pid in range(1, n + 1)
    }
    sim = Simulator(n=n, automata=automata, strict=strict)
    tracker = None
    if tracked:
        tracker = OutputTracker(key=DECISION)
        sim.add_observer(tracker)
    return sim, tracker


def _poll_idle_replica(n, tracked):
    registers = RegisterFile()
    registers.declare(("consensus", "decision"), initial=None, writer=None)
    automata = {
        pid: (
            DecisionPollAutomaton(pid, n)
            if pid <= (n + 1) // 2
            else IdleAutomaton(pid, n)
        )
        for pid in range(1, n + 1)
    }
    sim = Simulator(n=n, automata=automata, registers=registers)
    tracker = None
    if tracked:
        tracker = OutputTracker(key=DECISION)
        sim.add_observer(tracker)
    return sim, tracker


def _fallback_replica(program, n, tracked):
    return test_batch._fresh(n, program, tracked=tracked)


def _random_masks(rng, replicas, n, horizon):
    """Per-replica crash masks: None, crash-at-0 and mid-run crashes mixed."""
    masks = []
    for _ in range(replicas):
        if rng.random() < 0.4:
            masks.append(None)
        else:
            crashed = rng.sample(range(1, n + 1), rng.randint(1, max(1, n - 1)))
            masks.append({pid: rng.randint(0, horizon) for pid in crashed})
    if all(mask is None for mask in masks):
        return None
    return masks


def _make_replicas(kind, rng, n, combo_seed, tracked):
    """Build one replica (simulator, tracker) for ``kind``; deterministic per combo."""
    if kind == "anti-omega":
        t = 1 + combo_seed % (n - 1)
        k = 1 + (combo_seed // 3) % (n - 1)
        statistic = STATISTICS[combo_seed % len(STATISTICS)]
        policy = POLICIES[combo_seed % len(POLICIES)]
        return _anti_omega_replica(n, t, k, statistic, policy, tracked)
    if kind == "trivial":
        t = 1 + combo_seed % (n - 1)
        k = t + 1 + (combo_seed // 5) % (n - t)
        return _trivial_replica(n, t, k, base=100 * combo_seed, tracked=tracked)
    if kind == "poll-idle":
        return _poll_idle_replica(n, tracked)
    return _fallback_replica(test_batch.ALGORITHMS[kind], n, tracked)


SWEEP_KINDS = [
    "anti-omega",
    "trivial",
    "poll-idle",
    "token",
    "halting",
    "owned-counter",
]


# ----------------------------------------------------------------------
# The conformance sweep: every backend, 50+ seeded combos
# ----------------------------------------------------------------------

class TestBackendConformanceSweep:
    def test_fifty_plus_seeded_combos_byte_identical_to_reference(self, backend_name):
        """The headline differential: reference vs. backend on 54 seeded combos.

        Scenario families and horizons come from the batch suite's seeded
        generator; workloads alternate between the vector-lowered automata
        and the generator-driven fallback programs, so for the vector backend
        the sweep exercises both the column lane and the transparent
        fallback.  Every combo asserts the full observable state, the
        ``RunResult`` view and the tracker change sequence.
        """
        backend = get_backend(backend_name)
        rng = random.Random(20260807)
        combos = 0
        while combos < 54:
            params, horizon = test_batch._random_combination(rng)
            n = build_generator(params).n
            if n < 3:
                continue
            kind = SWEEP_KINDS[combos % len(SWEEP_KINDS)]
            tracked = combos % 2 == 0
            policy = FAST_TRACED if combos % 9 == 4 else FAST
            compiled = build_generator(params).compile(horizon)
            replicas = 3
            masks = _random_masks(rng, replicas, n, horizon)
            ref = [_make_replicas(kind, rng, n, combos, tracked) for _ in range(replicas)]
            new = [_make_replicas(kind, rng, n, combos, tracked) for _ in range(replicas)]
            ref_results = execute_batch(
                [s for s, _ in ref], compiled, policy=policy, crash_steps=masks
            )
            new_results = execute_batch(
                [s for s, _ in new],
                compiled,
                policy=policy,
                crash_steps=masks,
                backend=backend,
            )
            context = f"combo {combos}: {kind} on {params!r} horizon={horizon}"
            for (rs, rt), (ns, nt), rr, nr in zip(ref, new, ref_results, new_results):
                assert observable(rs) == observable(ns), context
                assert result_view(rr) == result_view(nr), context
                if tracked:
                    assert rt.changes == nt.changes, context
                if policy.collect_trace:
                    assert rs.trace().steps == ns.trace().steps, context
            combos += 1

    def test_vector_native_sweep_requires_lowering(self):
        """The lowered automata sweep cannot silently fall back to the reference."""
        if not get_backend("vector").available():
            pytest.skip("vector backend unavailable")
        rng = random.Random(777)
        for combo in range(18):
            params, horizon = test_batch._random_combination(rng)
            n = build_generator(params).n
            if n < 3:
                continue
            kind = ("anti-omega", "trivial", "poll-idle")[combo % 3]
            compiled = build_generator(params).compile(horizon)
            masks = _random_masks(rng, 4, n, horizon)
            ref = [_make_replicas(kind, rng, n, combo, True) for _ in range(4)]
            vec = [_make_replicas(kind, rng, n, combo, True) for _ in range(4)]
            backend = VectorBackend(require_lowering=True)
            ref_results = execute_batch(
                [s for s, _ in ref], compiled, crash_steps=masks
            )
            vec_results = execute_batch(
                [s for s, _ in vec], compiled, crash_steps=masks, backend=backend
            )
            assert backend.last_run["vectorized"] is True
            context = f"combo {combo}: {kind} on {params!r}"
            for (rs, rt), (vs, vt), rr, vr in zip(ref, vec, ref_results, vec_results):
                assert observable(rs) == observable(vs), context
                assert result_view(rr) == result_view(vr), context
                assert rt.changes == vt.changes, context


# ----------------------------------------------------------------------
# Edge cases, asserted identical across every backend
# ----------------------------------------------------------------------

class TestBackendEdgeCases:
    def _pair(self, n=4, t=2, k=2, replicas=1, tracked=False):
        build = lambda: [  # noqa: E731 - tiny local factory
            _anti_omega_replica(n, t, k, paper_accusation_statistic,
                                paper_timeout_policy, tracked)
            for _ in range(replicas)
        ]
        return build(), build()

    def _assert_identical(self, ref, new, ref_results, new_results):
        for (rs, _), (ns, _), rr, nr in zip(ref, new, ref_results, new_results):
            assert observable(rs) == observable(ns)
            assert result_view(rr) == result_view(nr)

    def test_batch_of_one(self, backend_name):
        compiled = CompiledSchedule(n=4, steps=[1, 2, 3, 4] * 60)
        ref, new = self._pair(replicas=1)
        self._assert_identical(
            ref,
            new,
            execute_batch([ref[0][0]], compiled),
            execute_batch([new[0][0]], compiled, backend=backend_name),
        )

    def test_zero_length_schedule(self, backend_name):
        compiled = CompiledSchedule(n=4, steps=[])
        ref, new = self._pair(replicas=2)
        ref_results = execute_batch([s for s, _ in ref], compiled)
        new_results = execute_batch(
            [s for s, _ in new], compiled, backend=backend_name
        )
        assert [r.steps_executed for r in new_results] == [0, 0]
        self._assert_identical(ref, new, ref_results, new_results)

    def test_crash_at_step_zero(self, backend_name):
        compiled = CompiledSchedule(n=4, steps=[1, 2, 3, 4] * 50)
        masks = [{1: 0}, {1: 0, 2: 0, 3: 0, 4: 0}]
        ref, new = self._pair(replicas=2)
        ref_results = execute_batch([s for s, _ in ref], compiled, crash_steps=masks)
        new_results = execute_batch(
            [s for s, _ in new], compiled, crash_steps=masks, backend=backend_name
        )
        assert new_results[1].steps_executed == 0
        self._assert_identical(ref, new, ref_results, new_results)

    def test_empty_batch(self, backend_name):
        compiled = CompiledSchedule(n=4, steps=[1, 2, 3, 4])
        assert execute_batch([], compiled, backend=backend_name) == []

    def test_max_steps_caps_every_replica(self, backend_name):
        compiled = CompiledSchedule(n=4, steps=[1, 2, 3, 4] * 50)
        masks = [None, {2: 5}]
        ref, new = self._pair(replicas=2)
        ref_results = execute_batch(
            [s for s, _ in ref], compiled, crash_steps=masks, max_steps=20
        )
        new_results = execute_batch(
            [s for s, _ in new],
            compiled,
            crash_steps=masks,
            max_steps=20,
            backend=backend_name,
        )
        assert new_results[0].steps_executed == 20
        self._assert_identical(ref, new, ref_results, new_results)

    def test_batch_not_a_multiple_of_the_column_chunk(self, backend_name):
        # Seven replicas over chunk-3 columns: 3 + 3 + 1.  For the reference
        # backend the chunk setting is irrelevant but the batch still runs.
        compiled = CompiledSchedule(n=4, steps=[2, 1, 4, 3] * 40)
        backend = (
            VectorBackend(chunk=3, require_lowering=True)
            if backend_name == "vector"
            else backend_name
        )
        ref, new = self._pair(replicas=7)
        ref_results = execute_batch([s for s, _ in ref], compiled)
        new_results = execute_batch([s for s, _ in new], compiled, backend=backend)
        if backend_name == "vector":
            assert backend.last_run["chunks"] == 3
        self._assert_identical(ref, new, ref_results, new_results)

    def test_mid_batch_single_writer_violation_raises_identically(self, backend_name):
        def build():
            registers = RegisterFile()
            # Pid 2's scratch register is owned by pid 1: the third write by
            # pid 2 is a single-writer violation mid-run.
            registers.declare(("idle-scratch", 2), initial=0, writer=1)
            automata = {pid: IdleAutomaton(pid, 3) for pid in range(1, 4)}
            return Simulator(n=3, automata=automata, registers=registers)

        compiled = CompiledSchedule(n=3, steps=[1, 3, 1, 2, 1])
        errors = []
        sims = []
        for spec in ("python", backend_name):
            sim = build()
            sims.append(sim)
            with pytest.raises(RegisterError) as excinfo:
                execute_batch([sim], compiled, backend=spec)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "owned by process 1" in errors[0]
        assert observable(sims[0]) == observable(sims[1])

    def test_strict_mode_halted_step_raises_identically(self, backend_name):
        def build():
            automata = {
                pid: TrivialKSetAgreementAutomaton(pid, 3, t=1, k=2, input_value=pid)
                for pid in range(1, 4)
            }
            return Simulator(n=3, automata=automata, strict=True)

        compiled = CompiledSchedule(n=3, steps=[1, 2, 3] * 100)
        errors = []
        for spec in ("python", backend_name):
            with pytest.raises(SimulationError) as excinfo:
                execute_batch([build()], compiled, backend=spec)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "was scheduled after its program returned" in errors[0]


# ----------------------------------------------------------------------
# Registry and diagnostics
# ----------------------------------------------------------------------

class TestBackendRegistry:
    def test_registered_names(self):
        assert set(backend_names()) >= {"python", "vector"}
        assert "python" in available_backends()

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ConfigurationError, match="available"):
            get_backend("banana")

    def test_instances_pass_through(self):
        backend = VectorBackend(chunk=7)
        assert get_backend(backend) is backend
        assert get_backend(None).name == "python"

    def test_new_backend_registers_for_free(self):
        class EchoBackend(ReferenceBackend):
            name = "echo-test"

        try:
            register_backend(EchoBackend())
            assert "echo-test" in backend_names()
            compiled = CompiledSchedule(n=3, steps=[1, 2, 3] * 10)
            ref, new = [], []
            for bucket in (ref, new):
                bucket.append(_poll_idle_replica(3, tracked=False))
            [r] = execute_batch([ref[0][0]], compiled)
            [n_] = execute_batch([new[0][0]], compiled, backend="echo-test")
            assert result_view(r) == result_view(n_)
            assert observable(ref[0][0]) == observable(new[0][0])
        finally:
            _BACKENDS.pop("echo-test", None)

    def test_python_backend_ensure_available_is_a_noop(self):
        get_backend("python").ensure_available()

    def test_base_backend_ensure_available_names_the_backend(self):
        class Ghost(Backend):
            name = "ghost"

            def available(self):
                return False

        with pytest.raises(ConfigurationError, match="ghost"):
            Ghost().ensure_available()


class TestVectorDiagnostics:
    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        if not get_backend("vector").available():
            pytest.skip("vector backend unavailable")

    def test_fallback_reports_reason(self):
        backend = VectorBackend()
        sim, _ = _fallback_replica(test_batch._token_program, 3, tracked=False)
        execute_batch([sim], CompiledSchedule(n=3, steps=[1, 2, 3]), backend=backend)
        assert backend.last_run["vectorized"] is False
        assert "no vector lowering registered" in backend.last_run["reason"]

    def test_require_lowering_raises_instead_of_falling_back(self):
        backend = VectorBackend(require_lowering=True)
        sim, _ = _fallback_replica(test_batch._token_program, 3, tracked=False)
        with pytest.raises(SimulationError, match="could not lower"):
            execute_batch(
                [sim], CompiledSchedule(n=3, steps=[1, 2, 3]), backend=backend
            )

    def test_vectorized_run_reports_batch_and_chunks(self):
        backend = VectorBackend(chunk=2)
        sims = [_poll_idle_replica(3, tracked=False)[0] for _ in range(5)]
        execute_batch(sims, CompiledSchedule(n=3, steps=[1, 2, 3] * 5), backend=backend)
        assert backend.last_run == {
            "vectorized": True,
            "reason": None,
            "chunks": 3,
            "batch": 5,
        }


class TestAutoPlanner:
    def test_lowered_batch_plans_vector(self):
        if not get_backend("vector").available():
            pytest.skip("numpy unavailable")
        chosen, reason = plan_backend_for_classes({KAntiOmegaAutomaton}, FAST)
        assert chosen == "vector" and reason is None
        auto = get_backend("auto")
        sims = [
            _anti_omega_replica(
                4, 2, 2, paper_accusation_statistic, paper_timeout_policy, False
            )[0]
            for _ in range(3)
        ]
        compiled = CompiledSchedule(n=4, steps=[1, 2, 3, 4] * 5)
        execute_batch(sims, compiled, backend="auto")
        assert auto.last_plan == {"backend": "vector", "reason": None, "batch": 3}

    def test_unlowerable_batch_plans_python_with_reason(self):
        class Opaque:
            pass

        chosen, reason = plan_backend_for_classes({Opaque}, FAST)
        assert chosen == "python"
        assert reason

    def test_auto_falls_back_loudly_and_records_plan(self, caplog):
        """An unlowerable batch runs on the reference kernel, logged once."""
        backends_module._WARNED_FALLBACKS.clear()
        auto = get_backend("auto")
        compiled = build_generator({"schedule": "round-robin", "n": 3}).compile(30)
        solo = test_batch._fresh(3, test_batch.ALGORITHMS["halting"])[0]
        execute_batch([solo], compiled)
        sim = test_batch._fresh(3, test_batch.ALGORITHMS["halting"])[0]
        with caplog.at_level(logging.WARNING, logger=backends_module._LOGGER.name):
            execute_batch([sim], compiled, backend="auto")
        assert observable(sim) == observable(solo)
        assert auto.last_plan["backend"] == "python"
        assert auto.last_plan["reason"] and auto.last_plan["batch"] == 1
        if get_backend("vector").available():
            assert any(
                "falling back" in record.message for record in caplog.records
            )


# ----------------------------------------------------------------------
# The no-numpy environment (the [vector] extra not installed)
# ----------------------------------------------------------------------

class TestWithoutNumpy:
    @pytest.fixture(autouse=True)
    def _hide_numpy(self, monkeypatch):
        monkeypatch.setattr(vector_backend, "np", None)

    def test_vector_backend_reports_unavailable(self):
        assert get_backend("vector").available() is False
        assert "vector" not in available_backends()
        assert "vector" in backend_names()  # still listed, just not runnable

    def test_requesting_the_vector_backend_is_a_clear_configuration_error(self):
        sim, _ = _poll_idle_replica(3, tracked=False)
        with pytest.raises(ConfigurationError, match="numpy"):
            execute_batch(
                [sim], CompiledSchedule(n=3, steps=[1, 2, 3]), backend="vector"
            )

    def test_ensure_available_names_the_extra(self):
        with pytest.raises(ConfigurationError, match=r"\[vector\]"):
            get_backend("vector").ensure_available()

    def test_bench_defaults_skip_the_vector_lane(self):
        from repro.bench.trajectory import bench_kernel

        doc = bench_kernel(smoke=True, workloads=["bound-ops"])
        assert doc["config"]["backends"] == ["python"]
        assert "vector-batch-bare" not in doc["workloads"]["bound-ops"]
        assert "vector_vs_fast_stream" not in doc["headline"]

    def test_bench_explicit_vector_raises(self):
        from repro.bench.trajectory import bench_kernel

        with pytest.raises(ConfigurationError, match="numpy"):
            bench_kernel(smoke=True, workloads=["floor"], backends=["vector"])

    def test_regression_gate_skips_the_missing_vector_headline(self):
        from repro.bench.trajectory import compare_trajectories

        fresh_kernel = {"headline": {"batched_vs_fast_stream": 3.0}}
        baseline_kernel = {
            "headline": {"batched_vs_fast_stream": 3.0, "vector_vs_fast_stream": 30.0}
        }
        campaign = {"headline": {"batched_vs_stream": 1.0}, "payloads_identical": True}
        assert (
            compare_trajectories(fresh_kernel, campaign, baseline_kernel, campaign)
            == []
        )


class TestVectorHeadlineGate:
    def test_absolute_floor_fails_below_eight_x(self):
        from repro.bench.trajectory import compare_trajectories

        fresh_kernel = {
            "headline": {"batched_vs_fast_stream": 3.0, "vector_vs_fast_stream": 7.9}
        }
        baseline_kernel = {"headline": {"batched_vs_fast_stream": 3.0}}
        campaign = {"headline": {"batched_vs_stream": 1.0}, "payloads_identical": True}
        failures = compare_trajectories(
            fresh_kernel, campaign, baseline_kernel, campaign
        )
        assert any("absolute floor" in failure for failure in failures)

    def test_relative_gate_applies_within_one_mode(self):
        from repro.bench.trajectory import compare_trajectories

        fresh_kernel = {
            "config": {"smoke": False},
            "headline": {"vector_vs_fast_stream": 20.0},
        }
        baseline_kernel = {
            "config": {"smoke": False},
            "headline": {"vector_vs_fast_stream": 30.0},
        }
        campaign = {"headline": {}, "payloads_identical": True}
        failures = compare_trajectories(
            fresh_kernel, campaign, baseline_kernel, campaign
        )
        assert any("vector_vs_fast_stream regressed" in failure for failure in failures)

    def test_relative_gate_skipped_across_modes_but_floor_still_applies(self):
        # The vector ratio moves structurally with the horizon (fixed
        # compile/teardown cost amortizes over fewer smoke steps), so a
        # smoke measurement is not comparable to a full-mode baseline
        # within the tolerance band — only the absolute floor gates it.
        from repro.bench.trajectory import compare_trajectories

        baseline_kernel = {
            "config": {"smoke": False},
            "headline": {"vector_vs_fast_stream": 36.0},
        }
        campaign = {"headline": {}, "payloads_identical": True}
        smoke_ok = {
            "config": {"smoke": True},
            "headline": {"vector_vs_fast_stream": 24.0},
        }
        assert compare_trajectories(smoke_ok, campaign, baseline_kernel, campaign) == []
        smoke_below_floor = {
            "config": {"smoke": True},
            "headline": {"vector_vs_fast_stream": 6.0},
        }
        failures = compare_trajectories(
            smoke_below_floor, campaign, baseline_kernel, campaign
        )
        assert any("absolute floor" in failure for failure in failures)


# ----------------------------------------------------------------------
# Campaign integration: the backend parameter is engine-only
# ----------------------------------------------------------------------

class TestCampaignBackendParameter:
    def test_backend_is_a_measurement_key_not_a_schedule_key(self):
        from repro.campaign.runner import schedule_signature

        base = {"family": "set-timely", "n": 4, "seed": 3, "t": 2, "k": 2}
        assert schedule_signature(base) == schedule_signature(
            dict(base, backend="vector")
        )

    def test_detector_kind_payload_identical_across_backends(self):
        if not get_backend("vector").available():
            pytest.skip("vector backend unavailable")
        from repro.campaign.runner import run_detector_kind

        params = {
            "family": "set-timely",
            "n": 4,
            "p_set": [1],
            "q_set": [1, 2, 3],
            "bound": 3,
            "seed": 9,
            "crashes": [4],
            "t": 2,
            "k": 2,
            "horizon": 2000,
        }
        assert run_detector_kind(dict(params)) == run_detector_kind(
            dict(params, backend="vector")
        )

    def test_separation_probe_payload_identical_across_backends(self):
        if not get_backend("vector").available():
            pytest.skip("vector backend unavailable")
        from repro.campaign.runner import run_separation_probe_kind

        params = {
            "family": "set-timely",
            "n": 4,
            "p_set": [1],
            "q_set": [1, 2, 3],
            "bound": 3,
            "seed": 9,
            "crashes": [4],
            "t": 2,
            "k": 2,
            "horizon": 2000,
            "prefix_length": 400,
        }
        assert run_separation_probe_kind(dict(params)) == run_separation_probe_kind(
            dict(params, backend="vector")
        )
