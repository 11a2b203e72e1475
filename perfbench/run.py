"""The repo benchmark: four single-process workloads, outputs checked.

    python3 perfbench/run.py --workload search-narrow --seed 0 --seconds 30 --trace 0
    for w in search-narrow search-wide detector-sweep dist-queue; do
        python3 perfbench/run.py --workload $w --trace 1; done

A run measures distinct inputs of one workload, each in a fresh interpreter
(``instance.py``): input ``i`` of seed ``s`` is input seed ``STRIDE * s + i``.
Inputs run in that order, at least ``MIN_INPUTS`` of them, while the next one
(judged by the longest so far) still ends within ``--seconds``; so ``--seed``
fixes the input sequence and the host's speed only how far a run gets along
it.  The run prints the environment and every metric by name with its unit;
its last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``:

* ``--trace 0``: the end-to-end metrics, medians over the inputs —
  ``wall_s`` (the timed work of one input), ``setup_s`` (interpreter start
  until imports and inputs are done), ``peak_rss_mb`` and
  ``throughput_per_s`` (candidates/s on the search workloads, simulated
  scheduler steps/s on ``detector-sweep``, jobs/s on ``dist-queue``).
  ``wall_s`` and ``setup_s`` are seconds at the reference host speed (see
  ``instance.py``: the shared host's speed drifts by up to 2x, so each
  instance probes it); the raw medians and the host speed are printed too.
* ``--trace 1``: inputs as above, each run untraced and then traced.  The
  traced instances wrap each layer's public function
  (``workloads.traced_layers``) and run without the host-speed probe; the
  per-layer metrics are means over them, plus ``unattributed_frac`` and the
  tracing overhead (mean traced minus mean untraced raw wall time).

Correctness: the per-operation output digests of every input stored in
``references.json`` (the default seed 0 and the held-out seed 97) must match;
with tracing, the traced and untraced instances of an input must agree too.
Each differing digest, each raise, each failed or poisoned queue job and each
broken output invariant counts in ``failed``.  ``--write-reference`` stores
the run's digests as references.

Exits 2 without a result when the program's sources (``src/repro``) are not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
#: The workloads and what their throughput counts.  This process never
#: imports the program, so the workload facts it needs live here.
WORK_NAMES = {
    "search-narrow": "candidates_per_s",
    "search-wide": "candidates_per_s",
    "detector-sweep": "steps_per_s",
    "dist-queue": "jobs_per_s",
}
#: Fewest inputs a run measures, however slow the host.
MIN_INPUTS = 3
#: Input seeds of distinct ``--seed`` values never overlap below this many inputs.
STRIDE = 1000
#: Instances are killed once a run reaches this (the hard limit is 180 s).
RUN_LIMIT_S = 170.0
#: Single-threaded children: BLAS/OpenMP pools and hash seeds pinned.  The
#: bytecode cache stays on and inside the checkout, as for an installed CLI.
CHILD_ENV_UNSET = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
QUEUE_METHODS = ("enqueue", "lease", "complete", "heartbeat", "records_for")

#: Per-layer rows: (layer, end-to-end metric it should move, extras).  Each
#: extra is (name, unit, better).
LAYERS = [
    ("search.realize", "throughput_per_s (candidates)", []),
    (
        "search.screen_generation",
        "throughput_per_s (candidates)",
        [
            ("candidates_per_call", "count", "higher"),
            ("column_calls", "count", "higher"),
            ("reference_calls", "count", "lower"),
        ],
    ),
    ("search.screen", "wall_s (shrink predicate)", []),
    ("search.confirm", "throughput_per_s (candidates)", []),
    ("search.certify", "throughput_per_s (candidates)", []),
    ("search.shrink", "wall_s", [("evaluations", "count", "lower")]),
    ("campaign.engine.run", "wall_s", [("deduplicated", "count", "higher")]),
    ("campaign.compiled_schedule_for", "throughput_per_s (steps)", [("memo_hits", "count", "higher")]),
    ("scenarios.build_generator", "wall_s", []),
    ("runtime.run_fast", "throughput_per_s (steps)", [("ns_per_step", "ns", "lower")]),
    ("analysis.run_detector_experiment", "throughput_per_s (steps)", []),
    *[(f"queue.{method}", "throughput_per_s (jobs)", []) for method in QUEUE_METHODS],
    ("distsim.run_timeline", "throughput_per_s (jobs)", [("messages", "count", "lower")]),
    ("distsim.timeliness_report", "throughput_per_s (jobs)", []),
]
#: Per-layer metrics that belong to no single wrapped function.
OTHER_LAYER_METRICS = [
    ("search.screen_cache.hits", "count", "higher"),
    ("search.screen_cache.misses", "count", "lower"),
    ("search.in_model_violations", "count", "lower"),
    ("queue.ms_per_job", "ms", "lower"),
    ("unattributed_frac", "ratio", "lower"),
    ("tracing_overhead_s", "s", "lower"),
]
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
]


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer, _, extras in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
        specs += [(f"{layer}.{name}", unit, better) for name, unit, better in extras]
    return specs + OTHER_LAYER_METRICS


def spawn(workload: str, input_seed: int, trace: bool, workdir: Path, timeout: float) -> Dict[str, Any]:
    """One instance in a fresh interpreter; its JSON result or an ``error``."""
    command = [
        sys.executable,
        str(HERE / "instance.py"),
        "--workload", workload,
        "--input-seed", str(input_seed),
        "--trace", str(int(trace)),
        "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env={
                **{k: v for k, v in os.environ.items() if k not in CHILD_ENV_UNSET},
                **CHILD_ENV,
            },
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"instance exceeded {timeout:.0f}s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"instance exited {done.returncode}: {done.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def run_instances(workload: str, seed: int, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    """Run the seed's inputs in order within ``seconds``; stop at the first error.

    With ``trace`` each input runs untraced and then traced.
    """
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    started = time.monotonic()
    longest = 0.0
    results: List[Dict[str, Any]] = []
    try:
        for i in range(STRIDE):
            input_started = time.monotonic()
            if i >= MIN_INPUTS and input_started - started + longest > seconds:
                break
            for traced in (False, True) if trace else (False,):
                timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
                result = spawn(workload, STRIDE * seed + i, traced, workdir, timeout)
                result.update(input_seed=STRIDE * seed + i, traced=traced)
                results.append(result)
                if "error" in result:
                    return results
            longest = max(longest, time.monotonic() - input_started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    return results


def mismatches(items: List[str], expected: List[str]) -> int:
    """Positions whose digest differs, plus the length difference."""
    differing = sum(1 for a, b in zip(items, expected) if a != b)
    return differing + abs(len(items) - len(expected))


def load_references() -> Dict[str, Dict[str, str]]:
    """workload -> input seed -> the input's space-separated output digests."""
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def end_to_end(untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the run's inputs."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "throughput_per_s": statistics.median(r["work"] / r["wall_s"] for r in untraced),
    }


def raw_medians(untraced: List[Dict[str, Any]]) -> str:
    """The unscaled times and the host speed, medians over the run's inputs."""
    return ", ".join(
        f"{name} {statistics.median(r[name] for r in untraced):.4f}"
        for name in ("raw_wall_s", "raw_setup_s", "host_speed")
    )


def layer_values(result: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced instance."""
    layers = result["layers"]
    values: Dict[str, float] = {}
    for layer, _, extras in LAYERS:
        stats = layers.get(layer, {})
        values[f"{layer}.calls"] = stats.get("calls", 0)
        values[f"{layer}.self_s"] = stats.get("self_s", 0.0)
        for name, _, _ in extras:
            values[f"{layer}.{name}"] = stats.get(name, 0)
    screen = layers["search.screen_generation"]
    if screen["calls"]:
        values["search.screen_generation.candidates_per_call"] = screen["candidates"] / screen["calls"]
    values["search.screen_generation.column_calls"] = screen.get("lane_column", 0)
    values["search.screen_generation.reference_calls"] = screen.get("lane_reference", 0)
    fast = layers["runtime.run_fast"]
    if fast.get("steps"):
        values["runtime.run_fast.ns_per_step"] = fast["self_s"] * 1e9 / fast["steps"]
    if values["queue.enqueue.calls"]:
        queue_s = sum(values[f"queue.{method}.self_s"] for method in QUEUE_METHODS)
        values["queue.ms_per_job"] = queue_s * 1e3 / result["work"]
    values["search.screen_cache.hits"] = result["screen_cache"]["hits"]
    values["search.screen_cache.misses"] = result["screen_cache"]["misses"]
    values["search.in_model_violations"] = result["notes"].get("in_model_violations", 0)
    values["unattributed_frac"] = result["unattributed_frac"]
    return values


def per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics as means over the traced inputs, plus the tracing overhead."""
    samples = [layer_values(result) for result in traced]
    metrics = {
        name: statistics.fmean(values.get(name, 0) for values in samples)
        for name, _, _ in per_layer_specs()
    }
    metrics["tracing_overhead_s"] = statistics.fmean(r["raw_wall_s"] for r in traced) - statistics.fmean(
        r["raw_wall_s"] for r in untraced
    )
    return metrics


def check(workload: str, results: List[Dict[str, Any]]) -> Tuple[int, int, List[int]]:
    """(attempted, failed, inputs checked against a stored reference)."""
    references = load_references().get(workload, {})
    first: Dict[int, List[str]] = {}
    failed = 0
    for result in results:
        first.setdefault(result["input_seed"], result["items"])
        stored = references.get(str(result["input_seed"]))
        expected = stored.split() if stored is not None else first[result["input_seed"]]
        failed += result["failed"] + mismatches(result["items"], expected)
    checked = sorted({r["input_seed"] for r in results if str(r["input_seed"]) in references})
    return sum(r["ops"] for r in results), failed, checked


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORK_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    results = run_instances(args.workload, args.seed, args.seconds, bool(args.trace))
    errors = [r["error"] for r in results if "error" in r]
    good = [r for r in results if "error" not in r]
    attempted, failed, checked = check(args.workload, good)
    failed += len(errors)
    attempted = max(attempted, failed, 1)
    correct = not errors and failed == 0

    inputs = sorted({r["input_seed"] for r in results})
    print(f"workload {args.workload}, seed {args.seed}: {len(good)} instance(s) on inputs "
          f"{inputs[0]}..{inputs[-1]}{', each untraced then traced' if args.trace else ''}")
    if good:
        env = good[0]["env"]
        lanes = sorted({r["notes"]["screen_lane"] for r in good if "screen_lane" in r["notes"]})
        print(f"env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}"
              + (f", screen lane {'/'.join(lanes)}" if lanes else ""))
    for note in ("in_model_violations", "findings", "unsatisfied_runs"):
        observed = [r["notes"][note] for r in good if note in r["notes"] and not r["traced"]]
        if observed:
            print(f"{note} (observed per input): {observed}")
    print(f"ops {attempted}, ops_failed {failed}; stored references checked for inputs {checked}")
    for error in errors:
        print(f"error: {error}")

    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics: Dict[str, Dict[str, Any]] = {}
    if untraced:
        values = end_to_end(untraced)
        print(f"wall_s per input (n={len(untraced)}): "
              + ", ".join(f"{r['wall_s']:.3f}" for r in untraced))
        print(f"unscaled: {raw_medians(untraced)}")
        for name, unit in END_TO_END:
            alias = f" ({WORK_NAMES[args.workload]})" if name == "throughput_per_s" else ""
            print(f"  {name:<18} {values[name]:>14.4f} {unit}{alias}")
        if not args.trace:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace and traced:
        values = per_layer(traced, untraced)
        feeds = {layer: feed for layer, feed, _ in LAYERS}
        print(f"  {'per-layer metric (mean over traced inputs)':<46} {'value':>14} {'unit':<6} should move")
        for name, unit, _ in per_layer_specs():
            feed = feeds.get(name.rsplit(".", 1)[0], "")
            print(f"  {name:<46} {values[name]:>14.6f} {unit:<6} {feed}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_specs()}

    if args.write_reference and correct:
        stored = load_references()
        for result in untraced:
            stored.setdefault(args.workload, {})[str(result["input_seed"])] = " ".join(result["items"])
        REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        print(f"references stored for {args.workload} inputs {inputs}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
