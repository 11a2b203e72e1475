"""Adversarial schedule search — generation throughput and cached replay.

Two measurements of the E11 subsystem:

* **generation throughput** — evaluating one population of candidate recipes
  through the ``search-eval`` campaign kind, one run for the whole
  generation as an inline ``repro search`` does it (one tracked run per
  candidate on a rewound replica, each shared step prefix stepped once; the
  exact verdict and certification only for flagged ones).  Prints
  candidates/second, the number the falsification loop's scale is budgeted
  in.
* **cached replay** — the same generation executed twice through a
  :class:`~repro.campaign.engine.CampaignEngine` with a content-addressed
  :class:`~repro.campaign.cache.ResultCache`: the second pass must be served
  from the cache with byte-identical records and a large speedup.  This is
  the property that makes search generations *resumable* campaign runs — a
  re-run of `repro search` with a cache directory replays history instead of
  re-simulating it.

Run standalone (``PYTHONPATH=src python benchmarks/bench_search.py``) or via
``PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_search.py --benchmark-only -s``.
"""

import json
import tempfile
import time
from pathlib import Path

from repro.campaign import CampaignEngine, ResultCache
from repro.search import SearchConfig, generation_recipes, generation_spec

from _bench_utils import once

CONFIG = SearchConfig.smoke_config("k-anti-omega-convergence", seed=0)


def _generation_zero_spec():
    """Generation 0 of the smoke search, exactly as `repro search` runs it."""
    return generation_spec(CONFIG, 0, generation_recipes(CONFIG, 0, []))


def measure_generation(repeats: int = 3) -> dict:
    """Evaluate one generation inline; return throughput numbers."""
    spec = _generation_zero_spec()
    candidates = sum(len(run["recipes"]) for run in spec.runs or [])
    timings = []
    with CampaignEngine() as engine:
        for _ in range(repeats):
            started = time.perf_counter()
            engine.run(spec)
            timings.append(time.perf_counter() - started)
    best = min(timings)
    return {
        "candidates": candidates,
        "seconds": best,
        "per_second": candidates / best if best else float("inf"),
    }


def measure_cached_replay() -> dict:
    """One generation cold vs. replayed from the content-addressed cache."""
    spec = _generation_zero_spec()

    def payload_fingerprint(result) -> str:
        return json.dumps([record.payload for record in result.records], sort_keys=True)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        with CampaignEngine(cache=cache) as engine:
            started = time.perf_counter()
            cold = engine.run(spec)
            cold_elapsed = time.perf_counter() - started
            started = time.perf_counter()
            warm = engine.run(spec)
            warm_elapsed = time.perf_counter() - started
    return {
        "cold": cold_elapsed,
        "warm": warm_elapsed,
        "speedup": cold_elapsed / warm_elapsed if warm_elapsed else float("inf"),
        "identical": payload_fingerprint(cold) == payload_fingerprint(warm),
        "warm_cache_hits": warm.cache_hits,
    }


def report(throughput: dict, replay: dict) -> str:
    lines = [
        "adversarial schedule search (E11 subsystem):",
        f"  generation evaluation:      {throughput['candidates']} candidates "
        f"in {throughput['seconds']*1000:.1f} ms "
        f"({throughput['per_second']:.0f} candidates/s)",
        f"  cached generation replay:   cold {replay['cold']*1000:.1f} ms, "
        f"warm {replay['warm']*1000:.1f} ms ({replay['speedup']:.1f}x)",
        f"  warm records byte-identical: {replay['identical']} "
        f"({replay['warm_cache_hits']} cache hit(s))",
    ]
    return "\n".join(lines)


def test_search_generation_and_cached_replay(benchmark):
    throughput = once(benchmark, measure_generation)
    replay = measure_cached_replay()
    print()
    print(report(throughput, replay))
    assert replay["identical"], "cached generation replay diverged from the cold run"
    assert replay["warm_cache_hits"] > 0, "second pass was not served from the cache"
    # Timing ratios are only meaningful when benchmarking is actually enabled
    # (smoke mode --benchmark-disable must not fail on runner timing noise).
    if not getattr(benchmark, "disabled", False):
        assert replay["speedup"] >= 3.0, (
            f"cached replay only {replay['speedup']:.1f}x faster than the cold run"
        )


if __name__ == "__main__":
    print(report(measure_generation(), measure_cached_replay()))
