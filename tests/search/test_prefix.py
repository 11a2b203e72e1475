"""The prefix-shared run plan and its runner."""

from array import array

import pytest

from repro.errors import SimulationError
from repro.failure_detectors.anti_omega import KAntiOmegaAutomaton, make_anti_omega_algorithm
from repro.memory.registers import RegisterFile
from repro.runtime import kernel
from repro.runtime.simulator import Simulator
from repro.search.prefix import (
    MIN_SHARED_DEPTH,
    PrefixPlan,
    PrefixRunner,
    plan_prefix_runs,
    shared_prefix,
)
from repro.search.properties import make_property, screen_generation
from repro.search.shrink import rebuild_candidate


def _buffer(steps):
    return array("i", steps)


class TestSharedPrefix:
    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ([], [1], 0),
            ([1, 2, 3], [1, 2, 3], 3),
            ([1, 2, 3], [1, 2], 2),
            ([2], [1], 0),
            ([1] * 100 + [2] + [3] * 50, [1] * 100 + [3] * 51, 100),
            ([4] * 1000 + [1], [4] * 1000 + [2], 1000),
        ],
    )
    def test_longest_common_prefix(self, first, second, expected):
        assert shared_prefix(_buffer(first), _buffer(second)) == expected
        assert shared_prefix(_buffer(second), _buffer(first)) == expected


class TestPlan:
    def test_runs_resume_where_they_branch_and_pause_for_later_runs(self):
        head = [1, 2] * MIN_SHARED_DEPTH
        low, high = len(head), len(head) + MIN_SHARED_DEPTH
        buffers = [
            _buffer(head + [1] * MIN_SHARED_DEPTH + [2]),  # shares `high` with the next
            _buffer([3] * 10),  # shares nothing
            _buffer(head + [1] * MIN_SHARED_DEPTH + [1]),
            _buffer(head + [2] * 10),  # shares `low` with the two above
        ]
        plan = plan_prefix_runs(buffers)
        assert plan.order == [2, 0, 3, 1]
        assert plan.resume == [0, high, low, 0]
        # The first run pauses at `low` (for buffer 3) and `high` (for
        # buffer 0); buffer 0 resumes at `high`, deeper than anything later
        # needs.
        assert plan.pauses == [[low, high], [], [], []]

    @pytest.mark.parametrize("depth, resumes", [(MIN_SHARED_DEPTH - 10, False),
                                                (MIN_SHARED_DEPTH - 1, False),
                                                (MIN_SHARED_DEPTH, True)])
    def test_prefixes_below_the_minimum_depth_run_whole(self, depth, resumes):
        buffers = [_buffer([1] * depth + [2]), _buffer([1] * depth + [3])]
        plan = plan_prefix_runs(buffers)
        if resumes:
            assert plan.resume == [0, depth] and plan.pauses == [[depth], []]
        else:
            assert plan.resume == [0, 0] and plan.pauses == [[], []]

    def test_duplicates_resume_at_their_whole_length(self):
        buffers = [_buffer([1, 2] * MIN_SHARED_DEPTH)] * 2
        length = 2 * MIN_SHARED_DEPTH
        plan = plan_prefix_runs(buffers)
        assert plan.resume == [0, length] and plan.pauses == [[length], []]

    def test_whole_plan_keeps_batch_order(self):
        assert PrefixPlan.whole(3) == PrefixPlan([0, 1, 2], [0, 0, 0], [[], [], []])


def _figure2():
    return make_property("k-anti-omega-convergence", {"n": 4, "t": 2, "k": 2})


class TestRunner:
    def test_a_whole_run_is_one_run_of_the_compiled_schedule(self, monkeypatch):
        """Below the minimum depth nothing is split, snapshotted or restored."""
        compiled = rebuild_candidate(4, [1, 2, 3, 4] * 20, [], "short")
        simulator = _figure2().replica()
        runner = PrefixRunner(simulator)
        sources = []
        original = simulator.run_fast
        monkeypatch.setattr(
            simulator, "run_fast", lambda source, *a, **k: sources.append(source) or original(source, *a, **k)
        )
        snapshots = []
        monkeypatch.setattr(simulator, "snapshot", lambda: snapshots.append(1))
        runner.run(compiled)
        assert sources == [compiled] and snapshots == []

    def test_missing_snapshot_is_an_error(self):
        compiled = rebuild_candidate(4, [1, 2, 3, 4] * 100, [], "long")
        runner = PrefixRunner(_figure2().replica())
        with pytest.raises(SimulationError, match="no snapshot at depth 300"):
            runner.run(compiled, resume=300)

    def test_segments_reach_the_bare_loop_as_the_arrays_themselves(self, monkeypatch):
        head = [1, 2, 3, 4] * (MIN_SHARED_DEPTH // 4 + 10)
        batch = [
            rebuild_candidate(4, head + [1] * 30, [], "a"),
            rebuild_candidate(4, head + [2] * 30, [], "b"),
        ]
        buffers = []
        original = kernel._execute_bare

        def spy(simulator, buffer, counts=None, entries=()):
            buffers.append(buffer)
            return original(simulator, buffer, counts, entries)

        monkeypatch.setattr(kernel, "_execute_bare", spy)
        screen_generation(_figure2(), batch, 6)
        # The first run pauses at the shared depth, so it steps two slices;
        # the second resumes there and steps one.
        assert [type(buffer) for buffer in buffers] == [array] * 3
        assert [len(buffer) for buffer in buffers] == [len(head), 30, 30]


class OverridingAntiOmega(KAntiOmegaAutomaton):
    """Figure 2 run through a program of its own, which has no resume hook."""

    def program(self, ctx, resume=None):
        yield from super().program(ctx, resume)


def _overriding_replica(n, t, k):
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = {
        pid: OverridingAntiOmega(pid=pid, n=n, t=t, k=k)
        for pid in make_anti_omega_algorithm(n=n, t=t, k=k)
    }
    return Simulator(n=n, automata=automata, registers=registers)


class TestHooklessSubclass:
    def test_overriding_the_program_drops_the_hook(self):
        assert _figure2().replica().resumable
        assert not _overriding_replica(4, 2, 2).resumable

    def test_screen_generation_runs_it_whole(self, monkeypatch):
        head = [1, 2, 3, 4] * (MIN_SHARED_DEPTH // 4 + 10)
        batch = [
            rebuild_candidate(4, head + [1] * 30, [], "a"),
            rebuild_candidate(4, head + [2] * 30, [], "b"),
        ]
        prop = _figure2()
        prop._replica = _overriding_replica(4, 2, 2)
        sources = []
        original = prop._replica.run_fast
        monkeypatch.setattr(
            prop._replica, "run_fast",
            lambda source, *a, **k: sources.append(source) or original(source, *a, **k),
        )
        verdicts = screen_generation(prop, batch, 6)
        assert sources == batch
        assert verdicts == [_figure2().evaluate(compiled, 6) for compiled in batch]
