"""E1 — Figure 1: set timeliness versus individual timeliness.

Regenerates the observed-bound table for growing prefixes of the paper's
Figure 1 schedule and times both the schedule generation and the timeliness
analysis machinery.
"""

from repro.analysis.experiment import run_experiment
from repro.analysis.reporting import ascii_table
from repro.core.timeliness import analyze_timeliness
from repro.schedules.figure1 import Figure1Generator

from _bench_utils import once


def test_e1_figure1_bounds_table(benchmark):
    headers, rows = once(benchmark, run_experiment, "e1", blocks=(2, 4, 8, 16, 32, 64))
    print()
    print(ascii_table(headers, rows, title="E1 — Figure 1 observed timeliness bounds"))
    # The set stays timely with bound 2; the individuals' bounds keep growing.
    assert all(row[4] <= 2 for row in rows)
    assert rows[-1][2] > rows[0][2]


def test_e1_timeliness_analysis_throughput(benchmark):
    """Microbenchmark: analysing one long Figure 1 prefix (100k steps)."""
    generator = Figure1Generator()
    schedule = generator.generate(100_000)

    def analyse():
        return analyze_timeliness(schedule, {1, 2}, {3}).minimal_bound

    bound = benchmark(analyse)
    assert bound <= 2
