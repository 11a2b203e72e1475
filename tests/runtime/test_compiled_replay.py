"""Compiled-buffer replay: the equivalence contract with the live-stream path.

The headline test is the seeded randomized sweep: 50+ random
(scenario family, algorithm, n, seed) combinations, each executed through
the per-run fast path over one live generator stream per replica
(:meth:`~repro.runtime.simulator.Simulator.run_fast`) and through
:func:`~repro.runtime.kernel.execute` over one shared
:class:`~repro.core.schedule.CompiledSchedule` buffer (the whole-buffer bare
loop with the buffer's cached step counts), with outputs, step counts (total
and per process), halted sets and register operation counts asserted
identical.  That contract is what lets the campaign layer compile a scenario
once and replay it per replica.  A second sweep drives the prebound paper
automata (k-anti-Ω under every registry accusation statistic and timeout
policy, trivial k-set agreement) the same two ways, and the edge cases — a
zero-length schedule, a ``max_steps`` cap, a one-shot iterable source, a
mid-run single-writer violation and a strict-mode step after halting —
behave exactly as the stream path.
"""

import random

import pytest

from repro.agreement.kset import DECISION
from repro.agreement.trivial import TrivialKSetAgreementAutomaton
from repro.core.schedule import CompiledSchedule, InfiniteSchedule
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
from repro.runtime.kernel import FAST, FAST_TRACED, INSTRUMENTED, execute
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




class TestRandomizedReplayEquivalence:
    def test_fifty_random_combinations_agree_with_live_stream(self):
        rng = random.Random(20260730)
        combos = 0
        while combos < 54:
            params, horizon = _random_combination(rng)
            algorithm = rng.choice(sorted(ALGORITHMS))
            program = ALGORITHMS[algorithm]
            n = build_generator(params).n
            compiled = build_generator(params).compile(horizon)
            replicas = 3
            streamed = []
            replayed = []
            for _ in range(replicas):
                simulator, _ = _fresh(n, program)
                result = simulator.run_fast(
                    build_generator(params).stream(), max_steps=horizon
                )
                streamed.append(_observable_state(simulator, result, n))
                # Every replica replays the same shared buffer.
                simulator, _ = _fresh(n, program)
                result = execute(simulator, compiled, policy=FAST)
                replayed.append(_observable_state(simulator, result, n))
            context = f"combo {combos}: {algorithm} on {params!r} horizon={horizon}"
            assert replayed == streamed, context
            combos += 1

    def test_replay_with_trackers_matches_live_stream_tracker_changes(self):
        rng = random.Random(13579)
        for _ in range(10):
            params, horizon = _random_combination(rng)
            algorithm = rng.choice(sorted(ALGORITHMS))
            program = ALGORITHMS[algorithm]
            n = build_generator(params).n
            compiled = build_generator(params).compile(horizon)
            solo_sim, solo_tracker = _fresh(n, program, tracked=True)
            solo = solo_sim.run_fast(build_generator(params).stream(), max_steps=horizon)
            replay_sim, replay_tracker = _fresh(n, program, tracked=True)
            replayed = execute(replay_sim, compiled, policy=FAST)
            assert replayed.outputs == solo.outputs
            assert replay_tracker.changes == solo_tracker.changes
            assert _observable_state(replay_sim, replayed, n) == _observable_state(
                solo_sim, solo, n
            )


class TestPaperAutomataReplayEquivalence:
    @pytest.mark.parametrize("combo", range(24))
    def test_replay_matches_live_stream(self, combo):
        """The prebound paper automata: a compiled replay equals a live stream.

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
        context = f"combo {combo}: {kind} on {params!r} horizon={horizon}"
        for _ in range(3):
            ss, st = _paper_replica(kind, n, combo, tracked)
            sr = ss.run_fast(
                build_generator(params).stream(),
                max_steps=horizon if max_steps is None else max_steps,
                collect_trace=policy.collect_trace,
            )
            rs, rt = _paper_replica(kind, n, combo, tracked)
            rr = execute(rs, compiled, max_steps=max_steps, policy=policy)
            assert _full_state(rs, rr) == _full_state(ss, sr), context
            if tracked:
                assert rt.changes == st.changes, context
            if policy.collect_trace:
                assert rs.trace().steps == ss.trace().steps, context


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


def _assert_replay_matches_stream(build, compiled, max_steps=None):
    """A replay of ``compiled`` must equal a run over its steps as a live stream."""
    replay = build()
    result = execute(replay, compiled, max_steps=max_steps, policy=FAST)
    stream = build()
    expected = stream.run_fast(iter(list(compiled.steps)), max_steps=max_steps)
    assert _full_state(replay, result) == _full_state(stream, expected)
    return result


class TestCompiledReplaySources:
    def _sim(self, n=2, program=_token_program):
        return _fresh(n, program)[0]

    def test_compiled_schedule_over_wrong_universe_rejected(self):
        # A buffer compiled for Π3 cannot drive a Π2 replica, even if its
        # steps happen to stay within range.
        with pytest.raises(SimulationError, match="Π3"):
            execute(self._sim(n=2), CompiledSchedule(n=3, steps=[1, 2]), policy=FAST)

    def test_infinite_schedule_requires_max_steps(self):
        infinite = InfiniteSchedule(n=2, step_fn=lambda index: 1 + index % 2)
        with pytest.raises(SimulationError, match="max_steps"):
            execute(self._sim(), infinite, policy=FAST)
        result = execute(self._sim(), infinite, max_steps=10, policy=FAST)
        assert result.steps_executed == 10

    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    def test_max_steps_caps_compiled_buffer(self, algorithm):
        compiled, build = _edge_case(algorithm)
        result = _assert_replay_matches_stream(build, compiled, max_steps=7)
        assert result.steps_executed == 7

    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    def test_zero_length_schedule_runs_no_steps(self, algorithm):
        compiled, build = _edge_case(algorithm)
        empty = CompiledSchedule(n=compiled.n, steps=[])
        result = _assert_replay_matches_stream(build, empty)
        assert result.steps_executed == 0

    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    def test_whole_buffer_replay(self, algorithm):
        compiled, build = _edge_case(algorithm)
        result = _assert_replay_matches_stream(build, compiled)
        assert result.steps_executed == len(compiled.steps)

    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    def test_one_shot_iterable_matches_compiled_replay(self, algorithm):
        # A bare iterable without max_steps is materialized and run to its
        # end; with max_steps it is consumed lazily, exactly that many steps.
        compiled, build = _edge_case(algorithm)
        pulled = []

        def one_shot():
            for pid in compiled.steps:
                pulled.append(pid)
                yield pid

        replay = build()
        expected = execute(replay, compiled, policy=FAST)
        sim = build()
        result = execute(sim, one_shot(), policy=FAST)
        assert _full_state(sim, result) == _full_state(replay, expected)
        assert len(pulled) == len(compiled.steps)

        pulled.clear()
        replay = build()
        expected = execute(replay, compiled, max_steps=7, policy=FAST)
        sim = build()
        result = execute(sim, one_shot(), max_steps=7, policy=FAST)
        assert _full_state(sim, result) == _full_state(replay, expected)
        assert len(pulled) == 7

    def test_single_writer_violation_raises_like_live_stream(self):
        def build():
            registers = RegisterFile()
            # Pid 2's scratch register is owned by pid 1: the third write by
            # pid 2 is a single-writer violation mid-run.
            registers.declare(("idle-scratch", 2), initial=0, writer=1)
            automata = {pid: IdleAutomaton(pid, 3) for pid in range(1, 4)}
            return Simulator(n=3, automata=automata, registers=registers)

        compiled = CompiledSchedule(n=3, steps=[1, 3, 1, 2, 1])
        stream, replay = build(), build()
        with pytest.raises(RegisterError) as stream_error:
            stream.run_fast(iter([1, 3, 1, 2, 1]))
        with pytest.raises(RegisterError) as replay_error:
            execute(replay, compiled, policy=FAST)
        assert str(replay_error.value) == str(stream_error.value)
        assert "owned by process 1" in str(replay_error.value)
        assert replay.registers.total_writes() == stream.registers.total_writes()

    def test_strict_step_after_halt_raises_like_live_stream(self):
        compiled = CompiledSchedule(n=3, steps=[1, 2, 3] * 100)
        messages = []
        for run in (
            lambda sim: sim.run_fast(iter([1, 2, 3] * 100)),
            lambda sim: execute(sim, compiled, policy=FAST),
        ):
            with pytest.raises(SimulationError) as excinfo:
                run(_trivial_replica(3, 1, 2, base=0, strict=True)[0])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "was scheduled after its program returned" in messages[0]

    def test_instrumented_policy_collects_the_trace(self):
        compiled = CompiledSchedule(n=2, steps=[1, 2, 1])
        sim = self._sim()
        result = execute(sim, compiled, policy=INSTRUMENTED)
        assert result.executed_schedule.steps == (1, 2, 1)
        assert sim.trace().steps == (1, 2, 1)

    def test_traced_policy_with_tracker_rides_the_general_loop(self):
        compiled = CompiledSchedule(n=2, steps=[1, 2] * 20)
        simulator, tracker = _fresh(2, _token_program, tracked=True)
        result = execute(simulator, compiled, policy=FAST_TRACED)
        assert result.executed_schedule.steps == (1, 2) * 20
        assert tracker.changes  # publications were sampled
