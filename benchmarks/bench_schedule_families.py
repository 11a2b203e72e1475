"""E2c — context: detector behaviour across qualitatively different schedule families.

Positions the set-timeliness assumption relative to the classical ones: fully
synchronous, eventually synchronous, set-timely-without-individual-timeliness
(all converge), and the E4 boundary case where no timely set of the requested
size exists (never settles).
"""

from repro.analysis.experiment import run_experiment
from repro.analysis.reporting import ascii_table

from _bench_utils import once


def test_e2c_schedule_family_comparison(benchmark):
    headers, rows = once(benchmark, run_experiment, "families", horizon=60_000)
    print()
    print(ascii_table(headers, rows, title="E2c — detector behaviour across schedule families"))
    by_family = {row[0]: row for row in rows}
    for family, row in by_family.items():
        if "smaller timely set" in family:
            assert row[4] is False, row   # never stabilizes early
        else:
            assert row[3] is True, row    # k-anti-Ω property satisfied
            assert row[4] is True, row    # stabilized early
