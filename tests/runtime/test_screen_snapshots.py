"""The sim-free anti-Ω screen kernel, pinned against tracked runs.

A generation screen reads each candidate's published outputs at evenly
spaced checkpoints.  The search derives them from one tracked run per
candidate (:func:`repro.search.properties.tracker_snapshots`); the sim-free
kernel (:func:`repro.runtime.vector_backend.anti_omega_screen_snapshots`),
which no search lane calls any more, computes the same snapshots as numpy
columns.  The two must agree byte for byte for every lowered accusation statistic and timeout
policy, every instance size and checkpoint count, over generations that mix
schedule lengths (including a zero-length candidate and a crash at step 0),
and snapshot ``i`` must equal the outputs after ``(L * i) // checkpoints``
steps.  The kernel's argument checks — the ``UnsupportedLowering`` cases and the
``ConfigurationError`` for bad checkpoints — are pinned here too.
"""

import random
from array import array

import pytest

from repro.core.schedule import CompiledSchedule
from repro.errors import ConfigurationError
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
from repro.failure_detectors.base import FD_OUTPUT, WINNER_SET
from repro.memory.registers import RegisterFile
from repro.runtime import vector_backend
from repro.runtime.kernel import execute
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator
from repro.runtime.vector_backend import (
    UnsupportedLowering,
    anti_omega_screen_snapshots,
)
from repro.search.properties import tracker_snapshots

STATISTICS = [
    paper_accusation_statistic,
    min_accusation_statistic,
    max_accusation_statistic,
    median_accusation_statistic,
]
POLICIES = [paper_timeout_policy, doubling_timeout_policy, constant_timeout_policy]
PAPER_STATISTIC = paper_accusation_statistic
PAPER_POLICY = paper_timeout_policy
KEYS = (FD_OUTPUT, WINNER_SET)


@pytest.fixture(autouse=True)
def _needs_numpy():
    if vector_backend.np is None:
        pytest.skip("numpy unavailable")


LENGTHS = (0, 1, 31, 173, 600, 601) + (400, 800, 1600) * 4


def _bursty_steps(rng, n, length):
    """Bursts of 1 to 243 steps, each by a random subset of the processes.

    Uniformly random steps keep every process timely, so no timer expires
    and every statistic and policy publishes the same outputs.  Bursts that
    leave processes out for geometrically growing stretches make timers
    expire and accusations pile up, so the statistics publish differently.
    """
    steps = []
    while len(steps) < length:
        group = rng.sample(range(1, n + 1), rng.randint(1, n))
        burst = rng.choice((1, 3, 9, 27, 81, 243))
        steps.extend(rng.choice(group) for _ in range(burst))
    return steps[:length]


def _generation(seed, n, lengths=LENGTHS):
    """Seeded candidates over their own schedules; row 1 crashes at step 0."""
    rng = random.Random(seed)
    compileds = []
    for index, length in enumerate(lengths):
        steps = array("i", _bursty_steps(rng, n, length))
        crash = {steps[0]: 0} if index == 1 and length else {}
        compileds.append(CompiledSchedule(n=n, steps=steps, crash_steps=crash))
    return compileds


def _replica(n, t, k, statistic=PAPER_STATISTIC, policy=PAPER_POLICY):
    """One Figure 2 replica with prebound ops and declared registers."""
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = make_anti_omega_algorithm(
        n=n, t=t, k=k, accusation_statistic=statistic, timeout_policy=policy
    )
    return Simulator(n=n, automata=automata, registers=registers)


def _tracked_snapshots(replica, compiled, checkpoints, keys):
    trackers = {key: OutputTracker(key=key) for key in keys}
    for tracker in trackers.values():
        replica.add_observer(tracker)
    replica.run_fast(compiled)
    return tracker_snapshots(trackers, keys, compiled.n, len(compiled), checkpoints)


def _reference(n, t, k, compileds, checkpoints, keys=KEYS, **algorithm):
    return [
        _tracked_snapshots(_replica(n, t, k, **algorithm), compiled, checkpoints, keys)
        for compiled in compileds
    ]


class TestKernelMatchesReferenceSnapshots:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("statistic", STATISTICS, ids=lambda f: f.__name__)
    def test_every_lowered_statistic_and_policy(self, statistic, policy):
        n, t, k = 4, 2, 2
        compileds = _generation(11, n)
        kernel = anti_omega_screen_snapshots(
            n,
            t,
            k,
            compileds,
            7,
            KEYS,
            accusation_statistic=statistic,
            timeout_policy=policy,
        )
        assert kernel == _reference(
            n, t, k, compileds, 7, statistic=statistic, policy=policy
        )

    @pytest.mark.parametrize("n,t,k", [(3, 1, 1), (4, 1, 2), (5, 2, 3), (5, 3, 2)])
    def test_instance_sizes(self, n, t, k):
        compileds = _generation(n * 100 + t * 10 + k, n)
        kernel = anti_omega_screen_snapshots(n, t, k, compileds, 5, KEYS)
        assert kernel == _reference(n, t, k, compileds, 5)

    @pytest.mark.parametrize("checkpoints", [1, 2, 7, 601, 1000])
    def test_checkpoint_counts(self, checkpoints):
        # Counts beyond a candidate's length make zero-length segments, which
        # repeat the previous snapshot on both lanes.
        n, t, k = 4, 2, 2
        compileds = _generation(checkpoints, n)
        kernel = anti_omega_screen_snapshots(n, t, k, compileds, checkpoints, KEYS)
        assert kernel == _reference(n, t, k, compileds, checkpoints)
        assert all(len(rows) == checkpoints for rows in kernel)

    @pytest.mark.parametrize(
        "keys",
        [(FD_OUTPUT,), (WINNER_SET,), ()],
        ids=["fd-output", "winner-set", "none"],
    )
    def test_key_subsets(self, keys):
        n, t, k = 4, 2, 2
        compileds = _generation(3, n)
        kernel = anti_omega_screen_snapshots(n, t, k, compileds, 4, keys)
        assert kernel == _reference(n, t, k, compileds, 4, keys=keys)

    @pytest.mark.parametrize("lane", ["tracked", "kernel"])
    def test_snapshot_boundaries_match_prefix_runs(self, lane):
        """Snapshot ``i`` equals the outputs after ``(L * i) // checkpoints`` steps."""
        n, t, k = 4, 2, 2
        length, checkpoints = 173, 5
        (compiled,) = _generation(3, n, lengths=(length,))
        if lane == "kernel":
            (snapshots,) = anti_omega_screen_snapshots(
                n, t, k, [compiled], checkpoints, (FD_OUTPUT,)
            )
        else:
            snapshots = _tracked_snapshots(
                _replica(n, t, k), compiled, checkpoints, (FD_OUTPUT,)
            )
        for index in range(1, checkpoints + 1):
            bound = (length * index) // checkpoints
            solo = _replica(n, t, k)
            execute(solo, CompiledSchedule(n=n, steps=compiled.steps[:bound]))
            expected = {
                pid: {FD_OUTPUT: solo.output_of(pid, FD_OUTPUT)}
                for pid in range(1, n + 1)
            }
            assert snapshots[index - 1] == expected


class TestKernelEdgeCases:
    def test_empty_generation(self):
        assert anti_omega_screen_snapshots(4, 2, 2, [], 3, KEYS) == []

    def test_generation_of_one(self):
        compileds = _generation(5, 4, lengths=(300,))
        kernel = anti_omega_screen_snapshots(4, 2, 2, compileds, 6, KEYS)
        assert len(kernel) == 1
        assert kernel == _reference(4, 2, 2, compileds, 6)

    def test_zero_length_candidate_publishes_nothing(self):
        (snapshots,) = anti_omega_screen_snapshots(
            4, 2, 2, [CompiledSchedule(n=4, steps=[])], 3, KEYS
        )
        assert snapshots == [
            {pid: {key: None for key in KEYS} for pid in range(1, 5)}
        ] * 3

    @pytest.mark.parametrize("checkpoints", [0, -1])
    def test_bad_checkpoints_rejected(self, checkpoints):
        with pytest.raises(ConfigurationError, match="checkpoints"):
            anti_omega_screen_snapshots(4, 2, 2, _generation(1, 4), checkpoints, KEYS)

    def test_mixed_n_rejected(self):
        compileds = _generation(1, 4, lengths=(10,)) + _generation(1, 3, lengths=(10,))
        with pytest.raises(UnsupportedLowering, match="3 processes"):
            anti_omega_screen_snapshots(4, 2, 2, compileds, 3, KEYS)

    def test_untracked_key_rejected(self):
        with pytest.raises(UnsupportedLowering, match="tracks"):
            anti_omega_screen_snapshots(4, 2, 2, _generation(1, 4), 3, ("decision",))

    def test_unregistered_statistic_rejected(self):
        def custom_statistic(counters, t):
            return sorted(counters)[t]

        with pytest.raises(UnsupportedLowering, match="no vector lowering"):
            anti_omega_screen_snapshots(
                4,
                2,
                2,
                _generation(1, 4),
                3,
                KEYS,
                accusation_statistic=custom_statistic,
            )

    def test_missing_numpy_rejected(self, monkeypatch):
        monkeypatch.setattr(vector_backend, "np", None)
        with pytest.raises(UnsupportedLowering, match="numpy"):
            anti_omega_screen_snapshots(4, 2, 2, _generation(1, 4), 3, KEYS)
