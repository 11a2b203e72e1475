"""E2 — Theorem 23: the Figure 2 algorithm implements t-resilient k-anti-Ω in S^k_{t+1,n}.

Runs the detector on certified set-timely schedules across an (n, t, k, crash)
sweep and reports stabilization step, margin, and the converged winner set.
"""

from repro.analysis.experiment import run_experiment
from repro.analysis.reporting import ascii_table

from _bench_utils import once

HORIZON = 60_000


def test_e2_detector_convergence_sweep(benchmark):
    headers, rows = once(benchmark, run_experiment, "e2", horizon=HORIZON)
    print()
    print(
        ascii_table(
            headers,
            rows,
            title=f"E2 — k-anti-Ω convergence on certified S^k_{{t+1,n}} schedules (horizon {HORIZON})",
        )
    )
    # Theorem 23's property must hold on every configuration, with a winner set
    # containing a correct process (Lemma 20) stabilized well inside the horizon.
    for row in rows:
        assert row[4] is True, row      # satisfied
        assert row[9] is True, row      # winner set contains a correct process
        assert row[5] < HORIZON // 2, row


def test_e2_detector_convergence_large_bound(benchmark):
    """Same experiment with a coarse timeliness bound (slow P relative to Q)."""
    configs = [
        {"n": 4, "t": 2, "k": 2, "bound": 200, "crashes": frozenset()},
        {"n": 4, "t": 3, "k": 2, "bound": 200, "crashes": frozenset({4})},
    ]
    headers, rows = once(
        benchmark, run_experiment, "e2", configs=configs, horizon=150_000
    )
    print()
    print(ascii_table(headers, rows, title="E2b — convergence with timeliness bound 200"))
    for row in rows:
        assert row[4] is True, row
