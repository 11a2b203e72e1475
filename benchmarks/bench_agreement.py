"""E3 — Theorem 24 / Corollary 25: (t, k, n)-agreement is solvable in S^k_{t+1,n}.

Runs the full protocol stack (Figure 2 detector + k leader-gated consensus
instances, or the trivial algorithm when t < k) on certified schedules of the
matching system and reports decision quality and cost.
"""

from repro.analysis.experiment import run_experiment
from repro.analysis.reporting import ascii_table

from _bench_utils import once


def test_e3_agreement_sweep(benchmark):
    headers, rows = once(benchmark, run_experiment, "e3", horizon=600_000)
    print()
    print(
        ascii_table(
            headers,
            rows,
            title="E3 — (t,k,n)-agreement solved on certified S^k_{t+1,n} schedules",
        )
    )
    for row in rows:
        assert row[4] is True, row                # all correct processes decided
        assert row[6] is True, row                # validity
        problem_description = row[0]
        k = int(problem_description.split(",")[1])
        assert row[5] <= k, row                   # at most k distinct decisions
