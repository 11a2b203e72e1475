"""Campaign engine — single-core legacy harness vs. parallel fast-path campaign.

Runs the E2 anti-Ω convergence sweep (the default detector configurations)
twice and compares wall-clock time:

* **serial path** — the pre-campaign harness: one configuration at a time
  through ``Simulator.run`` (per-step observer sampling, memoized infinite
  schedule), exactly what the E2 harness (``run_experiment("e2")``) did before the
  campaign engine existed (``run_detector_experiment(..., fast=False)``);
* **campaign path** — the same sweep as a declarative campaign executed by
  ``CampaignEngine(workers=4)``: fast-path simulator runs, content-addressed
  deduplication, chunked dispatch across worker processes.

The aggregated ASCII tables must be **byte-identical** — ``run_fast``
preserves tracker change sequences exactly — and the campaign path must be at
least 1.3× faster.  On a single-core container the speedup comes entirely
from ``run_fast``; with real cores the workers multiply it further.

Run standalone (``PYTHONPATH=src python benchmarks/bench_campaign.py``) or via
``PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_campaign.py --benchmark-only -s``.
"""

import time

from repro.analysis.experiment import detector_campaign_spec, run_experiment
from repro.analysis.metrics import run_detector_experiment
from repro.analysis.reporting import ascii_table
from repro.campaign import CampaignEngine
from repro.campaign.runner import build_generator

from _bench_utils import once

HORIZON = 60_000
WORKERS = 4
REPEATS = 3


def run_serial_legacy(horizon: int = HORIZON) -> str:
    """The E2 sweep through the pre-campaign serial path; returns its table."""
    spec = detector_campaign_spec(horizon=horizon)
    headers = None
    rows = []
    for params in spec.runs or []:
        generator = build_generator(dict(params))
        report = run_detector_experiment(
            generator, t=params["t"], k=params["k"], horizon=horizon, fast=False
        )
        rows.append(
            [
                params["n"],
                params["t"],
                params["k"],
                frozenset(params["crashes"]),
                report.satisfied,
                report.stabilization_step,
                report.margin,
                report.winner_changes,
                report.converged_winner_set,
                report.winner_contains_correct,
            ]
        )
    headers = [
        "n", "t", "k", "crashes", "satisfied", "stabilization step", "margin",
        "winner changes", "winner set", "contains correct",
    ]
    return ascii_table(headers, rows)


def run_campaign(horizon: int = HORIZON, workers: int = WORKERS) -> str:
    """The same sweep through the campaign engine; returns its table."""
    headers, rows = run_experiment(
        "e2", horizon=horizon, engine=CampaignEngine(workers=workers)
    )
    return ascii_table(headers, rows)


def compare(horizon: int = HORIZON, workers: int = WORKERS, repeats: int = REPEATS) -> dict:
    """Time both paths (best of ``repeats``), check byte-identical tables."""
    serial_best = campaign_best = float("inf")
    serial_table = campaign_table = ""
    for _ in range(repeats):
        started = time.perf_counter()
        serial_table = run_serial_legacy(horizon)
        serial_best = min(serial_best, time.perf_counter() - started)
    for _ in range(repeats):
        started = time.perf_counter()
        campaign_table = run_campaign(horizon, workers)
        campaign_best = min(campaign_best, time.perf_counter() - started)
    return {
        "serial_seconds": serial_best,
        "campaign_seconds": campaign_best,
        "speedup": serial_best / campaign_best,
        "identical": serial_table == campaign_table,
        "table": campaign_table,
    }


def report(result: dict) -> str:
    lines = [
        "E2 anti-Ω convergence sweep — serial legacy path vs. campaign engine",
        result["table"],
        f"serial (Simulator.run, 1 worker):      {result['serial_seconds']:.3f}s",
        f"campaign (run_fast, {WORKERS} workers):        {result['campaign_seconds']:.3f}s",
        f"speedup:                               {result['speedup']:.2f}x",
        f"aggregated tables byte-identical:      {result['identical']}",
    ]
    return "\n".join(lines)


def test_campaign_vs_serial_speedup(benchmark):
    result = once(benchmark, compare)
    print()
    print(report(result))
    assert result["identical"], "campaign table differs from the serial table"
    # The wall-clock ratio is only meaningful when benchmarking is actually
    # enabled; smoke mode (--benchmark-disable, what CI runs) checks the
    # byte-identity invariant above but must not fail on a contended runner's
    # timing noise.
    if not getattr(benchmark, "disabled", False):
        assert result["speedup"] >= 1.3, (
            f"campaign path only {result['speedup']:.2f}x faster than the serial path"
        )


if __name__ == "__main__":
    outcome = compare()
    print(report(outcome))
    if not outcome["identical"] or outcome["speedup"] < 1.3:
        raise SystemExit(1)
