"""E4 — Theorem 26: the separation between (t,k,n) and (t,k-1,n) on one schedule family.

The carrier-rotation adversary (n = k+1, t = k) produces schedules of
S^k_{t+1,n} on which the degree-k detector stabilizes almost immediately while
the degree-(k-1) detector — the machinery a (t, k-1, n) algorithm would need —
keeps churning all the way to every horizon tested.
"""

from repro.analysis.experiment import run_experiment
from repro.analysis.reporting import ascii_table

from _bench_utils import once


def test_e4_separation_k2(benchmark):
    horizons = (40_000, 80_000, 160_000)
    headers, rows = once(benchmark, run_experiment, "e4", k=2, horizons=horizons)
    print()
    print(ascii_table(headers, rows, title="E4 — separation at k=2 (n=3, t=2)"))
    degree_k_rows = [row for row in rows if row[0] == 2]
    degree_km1_rows = [row for row in rows if row[0] == 1]
    # Degree k stabilizes early at every horizon; degree k-1 never does, and its
    # last winner change keeps scaling with the horizon.
    assert all(row[5] is True for row in degree_k_rows)
    assert all(row[5] is False for row in degree_km1_rows)
    last_changes = [row[3] for row in degree_km1_rows]
    assert last_changes == sorted(last_changes) and last_changes[-1] > last_changes[0]
    # Structural witness: some set of size k is timely, no set of size k-1 is.
    assert all(row[6] >= 1 for row in degree_k_rows)
    assert all(row[6] == 0 for row in degree_km1_rows)


def test_e4_separation_k3(benchmark):
    headers, rows = once(benchmark, run_experiment, "e4", k=3, horizons=(60_000,))
    print()
    print(ascii_table(headers, rows, title="E4b — separation at k=3 (n=4, t=3)"))
    by_degree = {row[0]: row for row in rows}
    assert by_degree[3][5] is True
    assert by_degree[2][5] is False
