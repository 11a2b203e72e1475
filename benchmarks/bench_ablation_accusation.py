"""A1 — ablation of the accusation statistic (Figure 2, line 3).

The paper takes the (t+1)-st smallest entry of Counter[A, *].  This ablation
swaps in min / max / median and shows, on two crafted workloads, how the
alternatives lose the properties Lemma 15 needs.
"""

from repro.analysis.experiment import run_experiment
from repro.analysis.reporting import ascii_table

from _bench_utils import once


def test_a1_accusation_statistic_ablation(benchmark):
    headers, rows = once(benchmark, run_experiment, "a1", horizon=80_000)
    print()
    print(ascii_table(headers, rows, title="A1 — accusation-statistic ablation"))

    crashed_rows = {row[1]: row for row in rows if row[0] == "crashed-min-set"}
    # The paper's statistic survives the crashed lexicographic-minimum set ...
    assert crashed_rows["paper (t+1)-st smallest"][2] is True
    assert crashed_rows["paper (t+1)-st smallest"][4] is True
    # ... while min and median freeze on the dead set (no correct member).
    assert crashed_rows["min"][4] is False
    assert crashed_rows["median"][4] is False

    bursty_rows = {row[1]: row for row in rows if row[0] == "bursty-observer"}
    # The paper's statistic also tolerates a single divergent (bursty) observer.
    assert bursty_rows["paper (t+1)-st smallest"][2] is True
    assert bursty_rows["paper (t+1)-st smallest"][4] is True
