"""A2 — ablation of the timeout growth policy (Figure 2, line 17).

The paper grows an expired timeout by one.  This ablation compares +1 with
doubling and with a constant timeout under a coarse timeliness bound, where
observers genuinely need to grow their timeouts before they stop accusing the
timely set.
"""

from repro.analysis.experiment import run_experiment
from repro.analysis.reporting import ascii_table

from _bench_utils import once

HORIZON = 200_000


def test_a2_timeout_policy_ablation(benchmark):
    headers, rows = once(benchmark, run_experiment, "a2", horizon=HORIZON, bound=400)
    print()
    print(ascii_table(headers, rows, title="A2 — timeout growth policy ablation (bound 400)"))
    by_policy = {row[0]: row for row in rows}
    # Growing policies settle early; the constant policy keeps churning the
    # winner set (its last change lands close to the horizon).
    assert by_policy["paper (+1)"][4] < HORIZON // 4
    assert by_policy["doubling"][4] < HORIZON // 4
    assert by_policy["constant"][4] > HORIZON // 3
