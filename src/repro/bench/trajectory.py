"""Pinned kernel/campaign benchmarks and their JSON trajectory files.

Two benchmark suites, deliberately small and stable across PRs:

* **kernel** (:func:`bench_kernel`) — ns/step of the execution kernel on one
  pinned scenario (the E2-style certified set-timely family, one initial
  crash) under the paths a campaign can take: the instrumented reference, the
  fast policy over a live generator stream ("today's" per-run path), the fast
  policy over a compiled buffer, and the bare batched loop
  (:func:`~repro.runtime.kernel.execute_batch`) with no instrumentation
  attached.  Three workloads bracket the algorithm-cost spectrum: ``floor``
  (pre-built operations, integer register names — measures pure harness
  overhead, the quantity the batched path optimizes), ``fresh-ops``
  (operation objects allocated every step, tuple register names — the
  allocation profile of algorithms that build ops inline, where the
  operation/addressing layer dominates) and ``bound-ops`` (the floor program
  with its ops pre-bound to register arena slots — the steady-state profile
  of the prebound paper algorithms, measuring pure slot dispatch).  Both the
  ``floor`` and ``fresh-ops`` batched ratios are headline numbers, gated
  against regression in CI.
* **campaign** (:func:`bench_campaign`) — wall time of a three-configuration
  detector sweep through the :class:`~repro.campaign.engine.CampaignEngine`,
  with compiled schedules disabled (the pre-batching engine), enabled
  (inline), and enabled across a persistent two-worker pool.  Payload
  equality between the streamed and batched paths is asserted on every run.

Every gated ratio is measured so that a drift of the host's speed hits both
of its sides alike instead of deciding it: the two sides alternate in one
process (ABAB…, call by call), each side of a round covers at least
:data:`SAMPLE_SECONDS`, and the headline is the median round.

``write_trajectory`` persists both suites as ``BENCH_kernel.json`` and
``BENCH_campaign.json``; :func:`check_regression` compares the structural
speedup ratios of a fresh measurement against the committed baselines (the
absolute ns/step numbers are machine-specific and are *not* compared).
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import time
from os import cpu_count
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from ..runtime.automaton import (
    BoundReadOp,
    BoundWriteOp,
    FunctionAutomaton,
    ProcessAutomaton,
    ReadOp,
    WriteOp,
)
from ..runtime.kernel import execute_batch
from ..runtime.observers import OutputTracker
from ..runtime.simulator import Simulator, build_simulator
from ..scenarios.spec import build_generator

BENCH_KERNEL_FILENAME = "BENCH_kernel.json"
BENCH_CAMPAIGN_FILENAME = "BENCH_campaign.json"

#: Trajectory file format version (bump when the pinned cases change shape).
TRAJECTORY_VERSION = 1

#: The pinned kernel scenario: the certified set-timely family E2/E3 sweep,
#: n=4 with one initial crash — the bread-and-butter campaign configuration.
KERNEL_SCENARIO: Dict[str, Any] = {
    "schedule": "set-timely",
    "n": 4,
    "p_set": [1, 2],
    "q_set": [1, 2, 3],
    "bound": 3,
    "seed": 7,
    "crashes": [4],
}

#: The pinned campaign sweep: three detector configurations (a subset of E2).
CAMPAIGN_CONFIGS: List[Dict[str, Any]] = [
    {"n": 3, "t": 2, "k": 1, "bound": 3, "crashes": []},
    {"n": 3, "t": 2, "k": 2, "bound": 3, "crashes": []},
    {"n": 4, "t": 2, "k": 2, "bound": 3, "crashes": []},
]

#: Replicas driven per execute_batch call in the batched kernel cases.
BATCH_REPLICAS = 8

#: Wall time each sample of a gated ratio covers, at least: a headline
#: kernel run repeated.  Shorter samples let host-speed drift between the
#: two sides decide the ratio.
SAMPLE_SECONDS = 0.2

# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def floor_workload(automaton, ctx):
    """Harness-floor workload: pre-built ops, integer register names.

    Every step is a read or write of the process's own register through
    operation objects hoisted out of the loop, so the measured time is almost
    entirely scheduler + kernel dispatch — the overhead batched execution
    exists to remove.  A publication every 512 beats keeps the on-publish
    sampling machinery honest without dominating.
    """
    read_own = ReadOp(automaton.pid)
    write_own = WriteOp(automaton.pid, 1)
    beat = 0
    while True:
        yield read_own
        yield write_own
        beat += 1
        if not beat % 512:
            automaton.publish("beat", beat)


def fresh_ops_workload(automaton, ctx):
    """Fresh-operation workload: new op objects and tuple names every step.

    This is the allocation profile of algorithms that build their operations
    inline (every yield constructs a ``ReadOp``/``WriteOp`` with a tuple
    register name), so per-step time runs through the operation/addressing
    layer — op construction plus tuple-keyed name resolution — which is
    exactly what the slot-addressed pipeline attacks.  Reported as its own
    headline to keep the floor ratio honest about its scope.
    """
    value = 0
    while True:
        current = yield ReadOp(("ping", automaton.pid))
        value = (current or 0) + 1
        yield WriteOp(("ping", automaton.pid), value)
        if not value % 512:
            automaton.publish("beat", value)


class PreboundPingAutomaton(ProcessAutomaton):
    """The fresh-ops program with its ops pre-bound to arena slots.

    Step-for-step the same register traffic as :func:`fresh_ops_workload` —
    a tuple-named read then a write of a fresh value — but :meth:`prebind`
    interns the register once, the read op is a fixed slot-carrying object
    and the write op is one reusable :class:`BoundWriteOp` cell whose value
    is refreshed before each yield.  This is the steady-state profile of the
    prebound paper algorithms (Ω/anti-Ω, agreement): tuple register names,
    zero per-step op allocation, slot dispatch with no name hashing.
    """

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self._register = ("ping", pid)
        self._read: Optional[BoundReadOp] = None
        self._write: Optional[BoundWriteOp] = None

    def prebind(self, registers) -> None:
        self._read = ReadOp(self._register).bind(registers)
        self._write = WriteOp(self._register, 0).bind(registers)

    def program(self, ctx):
        read_op = self._read
        write_op = self._write
        value = 0
        if read_op is None or write_op is None:  # unbound fallback
            while True:
                current = yield ReadOp(self._register)
                value = (current or 0) + 1
                yield WriteOp(self._register, value)
                if not value % 512:
                    self.publish("beat", value)
        while True:
            current = yield read_op
            value = (current or 0) + 1
            write_op.value = value
            yield write_op
            if not value % 512:
                self.publish("beat", value)


class FloorAutomaton(ProcessAutomaton):
    """:func:`floor_workload` as a named class with an eager register layout.

    The program delegates to the workload generator verbatim — byte-identical
    register traffic to the historical ``FunctionAutomaton`` wrapping.  The
    prebind hook interns the process's register eagerly, pinning the arena
    layout at construction time instead of ordering slots by first access.
    """

    def prebind(self, registers):
        """Intern this process's register for a schedule-independent layout."""
        registers.resolve_slot(self.pid)

    def program(self, ctx):
        return floor_workload(self, ctx)


#: Workload name -> automaton factory ``(pid, n) -> ProcessAutomaton``.
WORKLOADS: Dict[str, Callable] = {
    "floor": FloorAutomaton,
    "fresh-ops": lambda pid, n: FunctionAutomaton(pid, n, fresh_ops_workload),
    "bound-ops": PreboundPingAutomaton,
}


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------

def machine_info() -> Dict[str, Any]:
    """The machine identity recorded next to every measurement."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": cpu_count(),
    }


def _median_ns_per_step(run_once: Callable[[], int], repeats: int) -> Tuple[float, int]:
    """Median ns/step over ``repeats`` calls; ``run_once`` returns steps executed."""
    samples: List[float] = []
    steps = 0
    for _ in range(repeats):
        started = time.perf_counter()
        steps = run_once()
        samples.append((time.perf_counter() - started) / max(steps, 1) * 1e9)
    return statistics.median(samples), steps


def _interleaved_ratio(
    numerator: Callable[[], int], denominator: Callable[[], int], rounds: int
) -> Tuple[float, Tuple[float, int], Tuple[float, int]]:
    """A headline ratio of two runs' ns/step, measured so host drift cancels.

    Each of ``rounds`` rounds times enough calls of each run to cover about
    :data:`SAMPLE_SECONDS` per side (sized from one warm-up call of each),
    with the two runs' calls interleaved evenly through the round (ABAB…),
    so a drift of the host's speed slows both sides of a round alike.  The
    ratio is the median over rounds of ``numerator`` ns/step over
    ``denominator`` ns/step; each side also comes back as ``(median
    ns/step, steps per call)``.
    """
    sides = (numerator, denominator)
    calls = []
    steps = []
    for run_once in sides:
        started = time.perf_counter()
        steps.append(max(run_once(), 1))
        calls.append(max(1, math.ceil(SAMPLE_SECONDS / (time.perf_counter() - started))))
    # Call i of a side sits at fraction i / calls of the round.
    order = sorted(
        (index / calls[side], side) for side in (0, 1) for index in range(calls[side])
    )
    samples: Tuple[List[float], List[float]] = ([], [])
    for _ in range(rounds):
        elapsed = [0.0, 0.0]
        for _, side in order:
            started = time.perf_counter()
            sides[side]()
            elapsed[side] += time.perf_counter() - started
        for side in (0, 1):
            samples[side].append(elapsed[side] / (calls[side] * steps[side]) * 1e9)
    ratio = statistics.median(a / b for a, b in zip(*samples))
    return (
        ratio,
        (statistics.median(samples[0]), steps[0]),
        (statistics.median(samples[1]), steps[1]),
    )


# ----------------------------------------------------------------------
# Kernel suite
# ----------------------------------------------------------------------

def _kernel_simulator(
    n: int, factory: Callable, tracked: bool
) -> Tuple[Simulator, Optional[OutputTracker]]:
    simulator = build_simulator(n, lambda pid: factory(pid, n))
    tracker: Optional[OutputTracker] = None
    if tracked:
        tracker = OutputTracker(key="beat")
        simulator.add_observer(tracker)
    return simulator, tracker


def bench_kernel(
    smoke: bool = False,
    workloads: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Run the pinned kernel suite and return the trajectory document.

    ``workloads`` optionally restricts the suite to a subset of
    :data:`WORKLOADS` (the ``repro bench --workload`` filter); the full suite
    runs when omitted.  Filtered documents carry only the headline ratios
    their workloads support and are meant for interactive re-measurement,
    not for committing as the baseline.
    """
    horizon = 20_000 if smoke else 60_000
    # Five rounds in both modes: the gated headline pairs take the median
    # round, and three rounds let one drifted round in two decide it.
    repeats = 5
    n = int(KERNEL_SCENARIO["n"])
    compiled = build_generator(KERNEL_SCENARIO).compile(horizon)
    if workloads is None:
        selected = list(WORKLOADS)
    else:
        unknown = [name for name in workloads if name not in WORKLOADS]
        if unknown:
            raise ConfigurationError(
                f"unknown workload(s) {unknown}; available: {sorted(WORKLOADS)}"
            )
        selected = list(dict.fromkeys(workloads))

    def stream():
        return build_generator(KERNEL_SCENARIO).stream()

    workload_docs: Dict[str, Any] = {}
    for workload_name in selected:
        factory = WORKLOADS[workload_name]

        def run_instrumented() -> int:
            simulator, _ = _kernel_simulator(n, factory, tracked=True)
            return simulator.run(
                build_generator(KERNEL_SCENARIO).infinite(), max_steps=horizon
            ).steps_executed

        def run_fast_stream_tracked() -> int:
            simulator, _ = _kernel_simulator(n, factory, tracked=True)
            return simulator.run_fast(stream(), max_steps=horizon).steps_executed

        def run_fast_compiled_tracked() -> int:
            simulator, _ = _kernel_simulator(n, factory, tracked=True)
            return simulator.run_fast(compiled).steps_executed

        def run_fast_stream_bare() -> int:
            simulator, _ = _kernel_simulator(n, factory, tracked=False)
            return simulator.run_fast(stream(), max_steps=horizon).steps_executed

        def run_batch_compiled_bare() -> int:
            replicas = [
                _kernel_simulator(n, factory, tracked=False)[0]
                for _ in range(BATCH_REPLICAS)
            ]
            results = execute_batch(replicas, compiled)
            return sum(result.steps_executed for result in results)

        case_runs = [
            ("instrumented", run_instrumented),
            ("fast-stream", run_fast_stream_tracked),
            ("fast-compiled", run_fast_compiled_tracked),
        ]
        cases: Dict[str, Any] = {}
        for case_name, run_once in case_runs:
            ns_per_step, steps = _median_ns_per_step(run_once, repeats)
            cases[case_name] = {"ns_per_step": round(ns_per_step, 1), "steps": steps}
        # The headline pair is gated, so its two sides are interleaved.
        ratio, stream_bare, batch_bare = _interleaved_ratio(
            run_fast_stream_bare, run_batch_compiled_bare, repeats
        )
        for case_name, (ns_per_step, steps) in (
            ("fast-stream-bare", stream_bare),
            ("batch-compiled-bare", batch_bare),
        ):
            cases[case_name] = {"ns_per_step": round(ns_per_step, 1), "steps": steps}
        reference = cases["instrumented"]["ns_per_step"]
        for case in cases.values():
            case["speedup_vs_instrumented"] = round(reference / case["ns_per_step"], 2)
        cases["headline"] = {
            # Per-workload claim: bare batched execution vs. the per-run fast
            # path as it existed before this trajectory (stream-fed, bare).
            "batched_vs_fast_stream": round(ratio, 2)
        }
        workload_docs[workload_name] = cases

    # Both bracketing workloads are headline numbers: the floor ratio tracks
    # the batched harness win, the fresh-ops ratio tracks the slot-addressed
    # operation/addressing layer.  Filtered runs only carry what they measured.
    headline: Dict[str, Any] = {}
    if "floor" in workload_docs:
        headline["batched_vs_fast_stream"] = workload_docs["floor"]["headline"][
            "batched_vs_fast_stream"
        ]
    if "fresh-ops" in workload_docs:
        headline["fresh_ops_batched_vs_fast_stream"] = workload_docs["fresh-ops"][
            "headline"
        ]["batched_vs_fast_stream"]

    return {
        "version": TRAJECTORY_VERSION,
        "suite": "kernel",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_info(),
        "config": {
            "scenario": KERNEL_SCENARIO,
            "horizon": horizon,
            "repeats": repeats,
            "batch_replicas": BATCH_REPLICAS,
            "smoke": smoke,
            "workloads": selected,
        },
        "workloads": workload_docs,
        "headline": headline,
    }


# ----------------------------------------------------------------------
# Campaign suite
# ----------------------------------------------------------------------

def bench_campaign(smoke: bool = False) -> Dict[str, Any]:
    """Run the pinned campaign suite and return the trajectory document."""
    from ..analysis.experiment import detector_campaign_spec
    from ..campaign import CampaignEngine, compiled_schedules_disabled

    horizon = 6_000 if smoke else 20_000
    repeats = 2 if smoke else 3
    spec = detector_campaign_spec(configs=CAMPAIGN_CONFIGS, horizon=horizon, seed=11)
    total_steps = horizon * len(CAMPAIGN_CONFIGS)

    results: Dict[str, Any] = {}

    def run_stream() -> int:
        with compiled_schedules_disabled():
            results["stream"] = CampaignEngine(workers=1).run(spec)
        return total_steps

    def run_batched() -> int:
        results["batched"] = CampaignEngine(workers=1).run(spec)
        return total_steps

    # The headline pair is gated, so its two sides are interleaved.
    batched_ratio, (stream_ns, _), (batched_ns, _) = _interleaved_ratio(
        run_stream, run_batched, repeats
    )
    stream_seconds = stream_ns * total_steps / 1e9
    batched_seconds = batched_ns * total_steps / 1e9
    stream_result, batched_result = results["stream"], results["batched"]

    # Persistent pool: time the *second* run, when workers and their
    # compiled-schedule memos are warm — the steady state of a campaign
    # session.  The cold first run (fork + compile) is recorded alongside.
    with CampaignEngine(workers=2, chunk_size=1) as engine:
        started = time.perf_counter()
        engine.run(spec)
        pool_cold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        pool_result = engine.run(spec)
        pool_warm_seconds = time.perf_counter() - started

    payloads = [record.payload for record in stream_result.records]
    identical = (
        payloads == [record.payload for record in batched_result.records]
        and payloads == [record.payload for record in pool_result.records]
    )

    def case(seconds: float) -> Dict[str, Any]:
        return {
            "seconds": round(seconds, 4),
            "steps": total_steps,
            "ns_per_step": round(seconds / total_steps * 1e9, 1),
        }

    cases = {
        "campaign-stream": case(stream_seconds),
        "campaign-batched": case(batched_seconds),
        "campaign-pool-cold": case(pool_cold_seconds),
        "campaign-pool-warm": case(pool_warm_seconds),
    }
    return {
        "version": TRAJECTORY_VERSION,
        "suite": "campaign",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_info(),
        "config": {
            "configs": CAMPAIGN_CONFIGS,
            "horizon": horizon,
            "repeats": repeats,
            "smoke": smoke,
        },
        "cases": cases,
        "payloads_identical": identical,
        "headline": {"batched_vs_stream": round(batched_ratio, 2)},
    }


# ----------------------------------------------------------------------
# Persistence, regression checking, reporting
# ----------------------------------------------------------------------

def write_trajectory(
    out_dir: Union[str, Path], smoke: bool = False
) -> Tuple[Dict[str, Any], Dict[str, Any], List[Path]]:
    """Run both suites and write the two trajectory files into ``out_dir``."""
    target = Path(out_dir)
    target.mkdir(parents=True, exist_ok=True)
    kernel_doc = bench_kernel(smoke=smoke)
    campaign_doc = bench_campaign(smoke=smoke)
    paths: List[Path] = []
    for filename, document in (
        (BENCH_KERNEL_FILENAME, kernel_doc),
        (BENCH_CAMPAIGN_FILENAME, campaign_doc),
    ):
        path = target / filename
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return kernel_doc, campaign_doc, paths


def load_trajectory(directory: Union[str, Path]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load the two trajectory files from a directory."""
    base = Path(directory)
    kernel_doc = json.loads((base / BENCH_KERNEL_FILENAME).read_text())
    campaign_doc = json.loads((base / BENCH_CAMPAIGN_FILENAME).read_text())
    return kernel_doc, campaign_doc


#: A fresh headline ratio may fall this far below the committed baseline's
#: before the regression check fails (smoke runs on contended CI machines are
#: noisy; a real regression — e.g. the batched path losing its compiled-buffer
#: advantage — collapses the ratio far past 25%).
REGRESSION_TOLERANCE = 0.25

def check_regression(
    kernel_doc: Dict[str, Any],
    campaign_doc: Dict[str, Any],
    baseline_dir: Union[str, Path],
) -> List[str]:
    """Compare fresh headline ratios against the baselines in ``baseline_dir``.

    Callers that may have overwritten ``baseline_dir``'s files while
    producing the fresh documents (``repro bench --out . --check .``) must
    load the baseline *first* and use :func:`compare_trajectories` directly.
    """
    baseline_kernel, baseline_campaign = load_trajectory(baseline_dir)
    return compare_trajectories(kernel_doc, campaign_doc, baseline_kernel, baseline_campaign)


def compare_trajectories(
    kernel_doc: Dict[str, Any],
    campaign_doc: Dict[str, Any],
    baseline_kernel: Dict[str, Any],
    baseline_campaign: Dict[str, Any],
) -> List[str]:
    """Compare fresh headline ratios against already-loaded baselines.

    Only the structural speedup *ratios* are compared — absolute ns/step is a
    property of the machine, ratios are a property of the code.  The kernel
    suite gates both headline ratios: the floor workload (the batched-harness
    win) and the fresh-ops workload (the slot-addressed operation/addressing
    layer).  A key the baseline does not carry is skipped, so a freshly
    promoted headline starts gating from the first baseline that records it;
    a key the *fresh* document does not carry is also skipped, so a filtered
    run still gates what it did measure.  Returns a list of failure messages
    (empty when the trajectory holds).
    """
    failures: List[str] = []
    for label, fresh_doc, baseline_doc, key in (
        ("kernel", kernel_doc, baseline_kernel, "batched_vs_fast_stream"),
        ("kernel", kernel_doc, baseline_kernel, "fresh_ops_batched_vs_fast_stream"),
        ("campaign", campaign_doc, baseline_campaign, "batched_vs_stream"),
    ):
        baseline_value = baseline_doc["headline"].get(key)
        fresh_value = fresh_doc["headline"].get(key)
        if baseline_value is None or fresh_value is None:
            continue
        fresh = float(fresh_value)
        baseline = float(baseline_value)
        floor = baseline * (1.0 - REGRESSION_TOLERANCE)
        if fresh < floor:
            failures.append(
                f"{label} headline {key} regressed: {fresh:.2f}x vs. committed "
                f"baseline {baseline:.2f}x (floor {floor:.2f}x)"
            )
    if not campaign_doc.get("payloads_identical", False):
        failures.append(
            "campaign payloads differ between the streamed and batched paths"
        )
    return failures


def performance_markdown(
    kernel_doc: Dict[str, Any], campaign_doc: Dict[str, Any]
) -> str:
    """The EXPERIMENTS.md performance tables, generated from the trajectory."""
    lines: List[str] = []
    machine = kernel_doc["machine"]
    config = kernel_doc["config"]
    lines.append(
        f"Kernel suite (`{BENCH_KERNEL_FILENAME}`): pinned set-timely scenario, "
        f"horizon {config['horizon']:,}, median of {config['repeats']} — "
        f"{machine['implementation']} {machine['python']}."
    )
    lines.append("")
    workload_names = list(kernel_doc["workloads"])
    header = "| case |"
    divider = "|---|"
    for name in workload_names:
        header += f" {name} ns/step | {name} speedup |"
        divider += "---|---|"
    lines.append(header)
    lines.append(divider)
    case_names = [
        "instrumented",
        "fast-stream",
        "fast-compiled",
        "fast-stream-bare",
        "batch-compiled-bare",
    ]
    for case in case_names:
        row = f"| {case} |"
        for name in workload_names:
            entry = kernel_doc["workloads"][name][case]
            row += f" {entry['ns_per_step']} | {entry['speedup_vs_instrumented']}x |"
        lines.append(row)
    lines.append("")
    headline = kernel_doc["headline"]
    if "batched_vs_fast_stream" in headline:
        lines.append(
            f"Headline: bare batched execution is "
            f"**{headline['batched_vs_fast_stream']}x** faster per step "
            "than the per-run fast path on the no-observer floor workload."
        )
    if "fresh_ops_batched_vs_fast_stream" in headline:
        lines.append(
            f"Fresh-ops headline: **{headline['fresh_ops_batched_vs_fast_stream']}x** "
            "batched vs. per-run on the fresh-operation workload (op construction "
            "plus tuple-name resolution every step — the slot-addressed pipeline's "
            "target profile)."
        )
    lines.append("")
    campaign_config = campaign_doc["config"]
    lines.append(
        f"Campaign suite (`{BENCH_CAMPAIGN_FILENAME}`): three-configuration "
        f"detector sweep, horizon {campaign_config['horizon']:,} per run."
    )
    lines.append("")
    lines.append("| case | seconds | ns/step |")
    lines.append("|---|---|---|")
    for case_name, case in campaign_doc["cases"].items():
        lines.append(f"| {case_name} | {case['seconds']} | {case['ns_per_step']} |")
    lines.append("")
    lines.append(
        f"Batched vs. streamed campaign: "
        f"**{campaign_doc['headline']['batched_vs_stream']}x**; payloads "
        f"byte-identical: **{campaign_doc['payloads_identical']}**."
    )
    return "\n".join(lines)
