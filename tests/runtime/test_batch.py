"""Batched replica execution: the equivalence contract with the per-run path.

The headline test is the seeded randomized sweep: 50+ random
(scenario family, algorithm, n, seed) combinations, each executed through
today's per-run fast path (one live generator stream per replica) and through
:func:`~repro.runtime.kernel.execute_batch` over one shared compiled buffer,
with outputs, step counts (total and per process), halted sets and register
operation counts asserted identical.  That contract is what lets the campaign
layer batch replicas freely.  A second sweep drives the prebound paper
automata (k-anti-Ω under every registry accusation statistic and timeout
policy, trivial k-set agreement) through ``execute_batch`` and one
``execute`` per replica, and the edge cases — an empty batch, a batch of
one and of several sizes, a zero-length schedule, a ``max_steps`` cap, a
mid-run single-writer violation and a strict-mode step after halting —
behave exactly as the per-replica loop.
"""

import random

import pytest

from repro.agreement.kset import DECISION
from repro.agreement.trivial import TrivialKSetAgreementAutomaton
from repro.core.schedule import CompiledSchedule, InfiniteSchedule, Schedule
from repro.errors import RegisterError, SimulationError
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
from repro.runtime.automaton import FunctionAutomaton, IdleAutomaton, ReadOp, WriteOp
from repro.runtime.kernel import FAST, FAST_TRACED, INSTRUMENTED, execute, execute_batch
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator, build_simulator
from repro.scenarios.spec import build_generator


# ----------------------------------------------------------------------
# Algorithms for the sweep: three distinct step/publish/halt profiles
# ----------------------------------------------------------------------

def _token_program(automaton, ctx):
    """Reads, writes and publishes forever — the steady-state profile."""
    total = 0
    while True:
        value = yield ReadOp(("token",))
        current = value or 0
        yield WriteOp(("token",), current + 1)
        total += current
        if total % 3 == 0:
            automaton.publish("total", total)


def _halting_program(automaton, ctx):
    """Publishes then returns after five rounds — exercises the halt path."""
    for round_index in range(5):
        value = yield ReadOp(("token",))
        automaton.publish("last", value)
        yield WriteOp(("scratch", automaton.pid), round_index)
    return "done"


def _owned_counter_program(automaton, ctx):
    """Single-writer per-process registers with cross-process reads."""
    ops = [ReadOp(("count", peer)) for peer in range(1, automaton.n + 1)]
    mine = ("count", automaton.pid)
    value = 0
    while True:
        total = 0
        for op in ops:
            observed = yield op
            total += observed or 0
        value += 1
        yield WriteOp(mine, value)
        automaton.publish("seen", total)


ALGORITHMS = {
    "token": _token_program,
    "halting": _halting_program,
    "owned-counter": _owned_counter_program,
}


def _fresh(n, program, tracked=False):
    simulator = build_simulator(n, lambda pid: FunctionAutomaton(pid, n, program))
    if program is _owned_counter_program:
        simulator.registers.declare_array(
            "count", tuple(range(1, n + 1)), initial=0, owner_from_index=True
        )
    tracker = None
    if tracked:
        tracker = OutputTracker(
            key={"token": "total", "halting": "last", "owned-counter": "seen"}[
                [k for k, v in ALGORITHMS.items() if v is program][0]
            ]
        )
        simulator.add_observer(tracker)
    return simulator, tracker


def _random_combination(rng):
    """One random (family params, n, horizon) combination for the sweep."""
    n = rng.randint(2, 6)
    family = rng.choice(
        ["round-robin", "random", "set-timely", "eventually-synchronous",
         "carrier-rotation", "crash-churn", "alternating-epochs", "spliced-adversary"]
    )
    seed = rng.randint(0, 10_000)
    params = {"schedule": family, "n": n, "seed": seed}
    crashed = rng.sample(range(1, n + 1), rng.randint(0, max(n - 2, 0)))
    if family == "set-timely":
        correct = sorted(set(range(1, n + 1)) - set(crashed))
        p_size = rng.randint(1, max(len(correct) - 1, 1))
        params["p_set"] = correct[:p_size]
        params["q_set"] = list(range(1, n + 1))
        params["bound"] = rng.randint(2, 4)
    elif family in ("carrier-rotation", "spliced-adversary"):
        correct = sorted(set(range(1, n + 1)) - set(crashed))
        params["carriers"] = correct[: rng.randint(1, len(correct))]
    elif family == "crash-churn":
        params["period"] = rng.randint(8, 64)
        params["outage"] = rng.randint(0, params["period"])
        params["churn"] = rng.randint(0, 2)
    elif family == "alternating-epochs":
        params["sync_epoch"] = rng.randint(4, 32)
        params["async_epoch"] = rng.randint(4, 32)
        params["epoch_growth"] = rng.choice([0, 0, 3])
    params["crashes"] = crashed
    horizon = rng.randint(50, 400)
    return params, horizon


STATISTICS = [
    paper_accusation_statistic,
    min_accusation_statistic,
    max_accusation_statistic,
    median_accusation_statistic,
]
POLICIES = [paper_timeout_policy, doubling_timeout_policy, constant_timeout_policy]


def _anti_omega_replica(
    n,
    t,
    k,
    statistic=paper_accusation_statistic,
    policy=paper_timeout_policy,
    tracked=False,
):
    """One Figure 2 replica (prebound ops, declared registers) and its tracker."""
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


def _trivial_replica(n, t, k, base, tracked=False, strict=False):
    """One trivial k-set agreement replica (processes halt once they decide)."""
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


def _paper_replica(kind, n, combo, tracked):
    """A deterministic paper-automaton replica for sweep combo ``combo``."""
    t = 1 + combo % (n - 1)
    if kind == "anti-omega":
        k = 1 + (combo // 3) % (n - 1)
        return _anti_omega_replica(
            n,
            t,
            k,
            STATISTICS[combo % len(STATISTICS)],
            POLICIES[combo % len(POLICIES)],
            tracked,
        )
    k = t + 1 + (combo // 5) % (n - t)
    return _trivial_replica(n, t, k, base=100 * combo, tracked=tracked)


def _full_state(simulator, result):
    """Everything a replica run can observably change, in one comparable value."""
    arena = simulator.registers.arena_view()
    n = simulator.n
    return (
        result.outputs,
        result.steps_executed,
        result.stopped_early,
        result.halted_processes,
        result.executed_schedule.steps,
        [simulator.steps_taken(pid) for pid in range(1, n + 1)],
        list(arena.values),
        list(arena.read_counts),
        list(arena.write_counts),
    )


def _observable_state(simulator, result, n):
    return (
        result.outputs,
        result.steps_executed,
        result.stopped_early,
        result.halted_processes,
        simulator.registers.total_reads(),
        simulator.registers.total_writes(),
        [simulator.steps_taken(pid) for pid in range(1, n + 1)],
    )


class TestRandomizedBatchEquivalence:
    def test_fifty_random_combinations_agree_with_per_run_path(self):
        rng = random.Random(20260730)
        combos = 0
        while combos < 54:
            params, horizon = _random_combination(rng)
            algorithm = rng.choice(sorted(ALGORITHMS))
            program = ALGORITHMS[algorithm]
            generator = build_generator(params)
            n = generator.n
            compiled = build_generator(params).compile(horizon)
            replicas = 3
            per_run = []
            for _ in range(replicas):
                simulator, _ = _fresh(n, program)
                result = simulator.run_fast(
                    build_generator(params).stream(), max_steps=horizon
                )
                per_run.append(_observable_state(simulator, result, n))
            batch_sims = [_fresh(n, program)[0] for _ in range(replicas)]
            batch_results = execute_batch(batch_sims, compiled)
            batched = [
                _observable_state(simulator, result, n)
                for simulator, result in zip(batch_sims, batch_results)
            ]
            context = f"combo {combos}: {algorithm} on {params!r} horizon={horizon}"
            assert batched == per_run, context
            combos += 1

    def test_batch_with_trackers_matches_per_run_tracker_changes(self):
        rng = random.Random(13579)
        for _ in range(10):
            params, horizon = _random_combination(rng)
            algorithm = rng.choice(sorted(ALGORITHMS))
            program = ALGORITHMS[algorithm]
            n = build_generator(params).n
            compiled = build_generator(params).compile(horizon)
            solo_sim, solo_tracker = _fresh(n, program, tracked=True)
            solo = solo_sim.run_fast(build_generator(params).stream(), max_steps=horizon)
            batch_sim, batch_tracker = _fresh(n, program, tracked=True)
            [batched] = execute_batch([batch_sim], compiled)
            assert batched.outputs == solo.outputs
            assert batch_tracker.changes == solo_tracker.changes
            assert _observable_state(batch_sim, batched, n) == _observable_state(
                solo_sim, solo, n
            )


class TestPaperAutomataBatchEquivalence:
    @pytest.mark.parametrize("combo", range(24))
    def test_batch_matches_per_replica_execute(self, combo):
        """The prebound paper automata: one batch equals one execute() each.

        Alternates k-anti-Ω (cycling every registry statistic and policy) and
        trivial k-set agreement over the seeded scenario mix, with trackers,
        the traced policy and a ``max_steps`` cap folded into the combos.
        Each combo draws its scenario from its own seed, so a failure names
        the one combination that broke.
        """
        rng = random.Random(20260807 + combo)
        params, horizon = _random_combination(rng)
        while build_generator(params).n < 3:
            params, horizon = _random_combination(rng)
        n = build_generator(params).n
        kind = ("anti-omega", "trivial")[combo % 2]
        tracked = combo % 3 != 0
        policy = FAST_TRACED if combo % 6 == 4 else FAST
        max_steps = horizon // 2 if combo % 4 == 1 else None
        compiled = build_generator(params).compile(horizon)
        solo = [_paper_replica(kind, n, combo, tracked) for _ in range(3)]
        solo_results = [
            execute(sim, compiled, max_steps=max_steps, policy=policy)
            for sim, _ in solo
        ]
        batch = [_paper_replica(kind, n, combo, tracked) for _ in range(3)]
        batch_results = execute_batch(
            [sim for sim, _ in batch], compiled, max_steps=max_steps, policy=policy
        )
        context = f"combo {combo}: {kind} on {params!r} horizon={horizon}"
        for (ss, st), (bs, bt), sr, br in zip(
            solo, batch, solo_results, batch_results
        ):
            assert _full_state(bs, br) == _full_state(ss, sr), context
            if tracked:
                assert bt.changes == st.changes, context
            if policy.collect_trace:
                assert bs.trace().steps == ss.trace().steps, context


EDGE_ALGORITHMS = ["token", "anti-omega", "trivial"]


def _edge_case(algorithm):
    """(compiled buffer, replica factory) for one edge-case algorithm.

    ``token`` runs forever over Π2, ``anti-omega`` is the prebound Figure 2
    automaton over Π4, and ``trivial`` halts every process once it decides.
    """
    if algorithm == "token":
        return (
            CompiledSchedule(n=2, steps=[1, 2] * 10),
            lambda: _fresh(2, _token_program)[0],
        )
    if algorithm == "anti-omega":
        return (
            CompiledSchedule(n=4, steps=[1, 2, 3, 4] * 50),
            lambda: _anti_omega_replica(4, 2, 2)[0],
        )
    return (
        CompiledSchedule(n=3, steps=[1, 2, 3] * 40),
        lambda: _trivial_replica(3, 1, 2, base=0)[0],
    )


def _assert_batch_matches_execute(build, compiled, replicas, max_steps=None):
    """Batch ``replicas`` fresh replicas; each must equal a solo execute()."""
    sims = [build() for _ in range(replicas)]
    results = execute_batch(sims, compiled, max_steps=max_steps)
    solo = build()
    expected = _full_state(
        solo, execute(solo, compiled, max_steps=max_steps, policy=FAST)
    )
    assert [_full_state(s, r) for s, r in zip(sims, results)] == [expected] * replicas
    return results


class TestExecuteBatchSources:
    def _sims(self, count, n=2, program=_token_program):
        return [_fresh(n, program)[0] for _ in range(count)]

    @pytest.mark.parametrize("source", ["compiled", "schedule", "one-shot"])
    def test_empty_batch_is_a_noop(self, source):
        steps = iter([1, 2])
        schedule = {
            "compiled": CompiledSchedule(n=2, steps=[1, 2]),
            "schedule": Schedule(steps=(1, 2), n=2),
            "one-shot": steps,
        }[source]
        assert execute_batch([], schedule) == []
        # Nothing is materialized for an empty batch: a one-shot source is
        # left unconsumed.
        assert next(steps) == 1

    def test_mismatched_universes_rejected(self):
        sims = [self._sims(1, n=2)[0], self._sims(1, n=3)[0]]
        with pytest.raises(SimulationError, match="one Πn"):
            execute_batch(sims, CompiledSchedule(n=2, steps=[1, 2]))

    def test_compiled_schedule_over_wrong_universe_rejected(self):
        # Same contract as execute(): a buffer compiled for Π3 cannot drive
        # Π2 replicas, even if its steps happen to stay within range.
        with pytest.raises(SimulationError, match="Π3"):
            execute_batch(self._sims(2, n=2), CompiledSchedule(n=3, steps=[1, 2]))

    def test_finite_schedule_source_is_shared_across_replicas(self):
        schedule = Schedule(steps=(1, 2, 1, 2, 1), n=2)
        sims = self._sims(3)
        results = execute_batch(sims, schedule)
        assert [r.steps_executed for r in results] == [5, 5, 5]
        assert all(r.outputs == results[0].outputs for r in results)

    def test_one_shot_iterable_is_materialized_once_for_all_replicas(self):
        sims = self._sims(3)
        results = execute_batch(sims, iter([1, 2, 1, 1, 2, 2]))
        assert [r.steps_executed for r in results] == [6, 6, 6]
        assert [sim.steps_taken(1) for sim in sims] == [3, 3, 3]

    def test_infinite_schedule_requires_max_steps(self):
        infinite = InfiniteSchedule(n=2, step_fn=lambda index: 1 + index % 2)
        with pytest.raises(SimulationError, match="max_steps"):
            execute_batch(self._sims(2), infinite)
        results = execute_batch(self._sims(2), infinite, max_steps=10)
        assert [r.steps_executed for r in results] == [10, 10]

    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    def test_max_steps_caps_compiled_buffer(self, algorithm):
        compiled, build = _edge_case(algorithm)
        results = _assert_batch_matches_execute(build, compiled, 2, max_steps=7)
        assert [r.steps_executed for r in results] == [7, 7]

    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    def test_zero_length_schedule_runs_no_steps(self, algorithm):
        compiled, build = _edge_case(algorithm)
        empty = CompiledSchedule(n=compiled.n, steps=[])
        results = _assert_batch_matches_execute(build, empty, 2)
        assert [r.steps_executed for r in results] == [0, 0]

    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    def test_batch_of_one(self, algorithm):
        compiled, build = _edge_case(algorithm)
        [result] = _assert_batch_matches_execute(build, compiled, 1)
        assert result.steps_executed == len(compiled.steps)

    @pytest.mark.parametrize("replicas", [2, 3, 7, 16])
    def test_batch_size_leaves_every_replica_identical(self, replicas):
        compiled = CompiledSchedule(n=4, steps=[2, 1, 4, 3] * 40)
        _assert_batch_matches_execute(
            lambda: _anti_omega_replica(4, 2, 2)[0], compiled, replicas
        )

    def test_single_writer_violation_raises_like_execute(self):
        def build():
            registers = RegisterFile()
            # Pid 2's scratch register is owned by pid 1: the third write by
            # pid 2 is a single-writer violation mid-run.
            registers.declare(("idle-scratch", 2), initial=0, writer=1)
            automata = {pid: IdleAutomaton(pid, 3) for pid in range(1, 4)}
            return Simulator(n=3, automata=automata, registers=registers)

        compiled = CompiledSchedule(n=3, steps=[1, 3, 1, 2, 1])
        solo, batched = build(), build()
        with pytest.raises(RegisterError) as solo_error:
            execute(solo, compiled, policy=FAST)
        with pytest.raises(RegisterError) as batch_error:
            execute_batch([batched], compiled)
        assert str(batch_error.value) == str(solo_error.value)
        assert "owned by process 1" in str(batch_error.value)
        assert batched.registers.total_writes() == solo.registers.total_writes()

    def test_strict_step_after_halt_raises_like_execute(self):
        compiled = CompiledSchedule(n=3, steps=[1, 2, 3] * 100)
        messages = []
        for run in (
            lambda sim: execute(sim, compiled, policy=FAST),
            lambda sim: execute_batch([sim], compiled),
        ):
            with pytest.raises(SimulationError) as excinfo:
                run(_trivial_replica(3, 1, 2, base=0, strict=True)[0])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "was scheduled after its program returned" in messages[0]

    def test_non_positive_max_steps_rejected(self):
        with pytest.raises(SimulationError, match="positive step budget"):
            execute_batch(self._sims(1), CompiledSchedule(n=2, steps=[1, 2]), max_steps=0)

    def test_instrumented_policy_collects_traces_per_replica(self):
        compiled = CompiledSchedule(n=2, steps=[1, 2, 1])
        sims = self._sims(2)
        results = execute_batch(sims, compiled, policy=INSTRUMENTED)
        for sim, result in zip(sims, results):
            assert result.executed_schedule.steps == (1, 2, 1)
            assert sim.trace().steps == (1, 2, 1)

    def test_traced_policy_with_tracker_rides_the_general_loop(self):
        compiled = CompiledSchedule(n=2, steps=[1, 2] * 20)
        simulator, tracker = _fresh(2, _token_program, tracked=True)
        [result] = execute_batch([simulator], compiled, policy=FAST_TRACED)
        assert result.executed_schedule.steps == (1, 2) * 20
        assert tracker.changes  # publications were sampled
