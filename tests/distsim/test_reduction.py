"""Differential conformance: the timeline→schedule reduction is pinned.

The contract under test: for every distsim workload, compiling through the
:class:`~repro.distsim.workloads.DistSimGenerator` schedule interface
(``generator.compile``) and reducing an explicit message-level timeline
(``compile_timeline(run_timeline(...))``) produce **byte-identical** compiled
buffers — same steps, same crash metadata, same ``Πn``, same description.
Prefixes and faulty hints follow the exact conventions of every other
schedule generator, and the compiled buffers replay identically through
``execute`` — under the instrumented policy and through the bare loop, for
idle replicas and for the paper's k-anti-Ω automaton, whose outputs depend on
every step's interleaving.

The sweep size is environment-switched: the default (tier-1) run keeps a
representative smoke subset; ``REPRO_DISTSIM_FULL=1`` (the CI ``tests-distsim``
leg) runs the full seeded grid of 50+ (family × latency × fault) combos.
"""

import os

import pytest

from repro.core.schedule import CompiledSchedule
from repro.distsim import compile_timeline, run_timeline, timeliness_report
from repro.distsim.workloads import DistSimGenerator
from repro.errors import ConfigurationError
from repro.failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    make_anti_omega_algorithm,
)
from repro.memory.registers import RegisterFile
from repro.runtime.automaton import IdleAutomaton
from repro.runtime.kernel import FAST, execute
from repro.runtime.simulator import Simulator
from repro.scenarios.spec import build_generator

FULL_SWEEP = os.environ.get("REPRO_DISTSIM_FULL", "") not in ("", "0")

FAMILIES = (
    "dist-heavy-tail",
    "dist-diurnal",
    "dist-correlated-failures",
    "dist-rolling-restart",
    "dist-sticky-failover",
)

LATENCIES = (
    {},
    {"latency": "constant", "latency_scale": 3},
    {"latency": "uniform", "latency_scale": 2, "latency_spread": 6},
    {"latency": "pareto", "latency_scale": 2, "latency_alpha": 1.2},
)

FAULTS = (
    {},
    {"loss_rate": 0.2},
    {"crash_times": {"2": 900}},
    {
        "partitions": [
            {"start": 200, "duration": 150, "period": 500, "groups": [[1, 2], [3]]}
        ]
    },
)


def _combo_params():
    """The seeded (family × latency × fault) grid, deterministic by design."""
    combos = []
    seed = 0
    for family in FAMILIES:
        for latency in LATENCIES:
            for fault in FAULTS:
                if family == "dist-sticky-failover" and "partitions" not in fault:
                    # The failover arm fixes n=3; the partition fault already
                    # names processes 1..3, everything else is n-agnostic.
                    n = 3
                elif "partitions" in fault:
                    n = 3
                else:
                    n = 3 + (seed % 2)
                params = {"schedule": family, "n": n, "seed": seed}
                params.update(latency)
                params.update(fault)
                combos.append(params)
                seed += 1
    assert len(combos) >= 50
    return combos


_ALL_COMBOS = _combo_params()
# The smoke subset still crosses every family with every latency and fault
# kind at least once (stride 7 over an 80-combo grid hits 12 spread combos).
_SMOKE_COMBOS = _ALL_COMBOS[::7]
COMBOS = _ALL_COMBOS if FULL_SWEEP else _SMOKE_COMBOS


def _combo_id(params):
    return f"{params['schedule']}-s{params['seed']}"


class TestDifferentialReduction:
    @pytest.mark.parametrize("params", COMBOS, ids=_combo_id)
    def test_generator_and_reduction_are_byte_identical(self, params):
        length = 400
        generator = build_generator(params)
        assert isinstance(generator, DistSimGenerator)
        via_generator = generator.compile(length)

        timeline = run_timeline(build_generator(params), length)
        via_reduction = compile_timeline(timeline)

        assert via_generator.steps == via_reduction.steps  # array equality
        assert via_generator.steps.tobytes() == via_reduction.steps.tobytes()
        assert via_generator.n == via_reduction.n
        assert dict(via_generator.crash_steps) == dict(via_reduction.crash_steps)
        assert via_generator.description == via_reduction.description

    @pytest.mark.parametrize("params", COMBOS, ids=_combo_id)
    def test_prefix_and_crash_hint_follow_generator_conventions(self, params):
        compiled = compile_timeline(run_timeline(build_generator(params), 300))
        for prefix_length in (0, 120, 300):
            expected = build_generator(params).generate(prefix_length)
            actual = compiled.prefix(prefix_length)
            assert actual.steps == expected.steps
            assert actual.faulty_hint == expected.faulty_hint
        assert compiled.faulty == build_generator(params).faulty


def _idle_replica(n):
    return Simulator(n=n, automata={pid: IdleAutomaton(pid, n) for pid in range(1, n + 1)})


def _replica_view(sim):
    return (
        tuple(sim.steps_taken(pid) for pid in range(1, sim.n + 1)),
        sim.halted_processes(),
    )


def _anti_omega_replica(n):
    t = n - 1
    k = max(1, t - 1)
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = make_anti_omega_algorithm(n=n, t=t, k=k)
    return Simulator(n=n, automata=automata, registers=registers)


def _anti_omega_view(sim, result):
    arena = sim.registers.arena_view()
    return (
        _replica_view(sim),
        result.outputs,
        result.steps_executed,
        list(arena.values),
        list(arena.write_counts),
    )


REPLAY_COMBOS = COMBOS[:: max(1, len(COMBOS) // 6)]


def _both_buffers(params, length):
    """The generator-compiled and the timeline-reduced buffer for ``params``."""
    return [
        build_generator(params).compile(length),
        compile_timeline(run_timeline(build_generator(params), length)),
    ]


class TestReplay:
    """Both compiled buffers drive the execution kernel identically."""

    @pytest.mark.parametrize("params", REPLAY_COMBOS, ids=_combo_id)
    def test_execute_matches_across_compilation_paths(self, params):
        length = 250
        views = []
        for compiled in _both_buffers(params, length):
            sim = _idle_replica(compiled.n)
            result = execute(sim, compiled)
            views.append((_replica_view(sim), result.steps_executed))
        assert views[0] == views[1]

    @pytest.mark.parametrize("params", REPLAY_COMBOS, ids=_combo_id)
    def test_bare_loop_idle_replicas_match_across_compilation_paths(self, params):
        length = 250
        views = []
        for compiled in _both_buffers(params, length):
            sim = _idle_replica(compiled.n)
            result = execute(sim, compiled, policy=FAST)
            views.append((_replica_view(sim), result.steps_executed))
        assert views[0] == views[1]
        assert views[0][1] == length

    @pytest.mark.parametrize("params", REPLAY_COMBOS, ids=_combo_id)
    def test_bare_loop_anti_omega_replicas_match_across_compilation_paths(self, params):
        length = 250
        views = []
        for compiled in _both_buffers(params, length):
            sim = _anti_omega_replica(compiled.n)
            views.append(_anti_omega_view(sim, execute(sim, compiled, policy=FAST)))
        assert views[0] == views[1]


class TestReductionEdges:
    def test_zero_length_timeline_reduces_to_empty_schedule(self):
        params = {"schedule": "dist-heavy-tail", "n": 3, "seed": 1}
        timeline = run_timeline(build_generator(params), 0)
        assert len(timeline) == 0 and timeline.duration == 0
        compiled = compile_timeline(timeline)
        assert isinstance(compiled, CompiledSchedule)
        assert len(compiled) == 0
        assert compiled.prefix().steps == ()

    def test_run_timeline_requires_dist_generator(self):
        plain = build_generator({"schedule": "round-robin", "n": 3})
        with pytest.raises(ConfigurationError, match="distsim"):
            run_timeline(plain, 10)

    def test_timeline_stats_are_reproducible(self):
        params = {"schedule": "dist-heavy-tail", "n": 4, "seed": 9, "loss_rate": 0.3}
        a = run_timeline(build_generator(params), 500)
        b = run_timeline(build_generator(params), 500)
        assert a.stats == b.stats
        assert a.stats.dropped_loss > 0
        # Conservation: every sent message is delivered, dropped, or still in
        # flight when the horizon cuts the run — never double-counted.
        accounted = (
            a.stats.delivered
            + a.stats.dropped_loss
            + a.stats.dropped_partition
            + a.stats.dropped_down
        )
        assert accounted <= a.stats.sent


class TestReportConsistency:
    def test_report_matches_across_fresh_runs(self):
        params = {"schedule": "dist-sticky-failover", "n": 3, "seed": 0}
        first = timeliness_report(run_timeline(build_generator(params), 800), [1, 2], [3])
        second = timeliness_report(run_timeline(build_generator(params), 800), [1, 2], [3])
        assert first.to_payload() == second.to_payload()
