"""The four benchmark workloads and the layers a traced run wraps.

Each workload is one single-process instance of a path a CLI user runs: no
worker pool, no forked drain, no sleep or poll on the timed path.
``prepare(input_seed, workdir)`` builds the inputs (that is set-up);
``execute(inputs)`` is the timed work and returns an :class:`Outcome` whose
``items`` are per-operation digests of the canonical output.  ``run.py``
compares them with ``references.json`` and between the untraced and the
traced instance of an input; ``failed`` counts raises, failed or poisoned
jobs and broken output invariants, which hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.analysis import metrics as analysis_metrics
from repro.analysis.experiment import (
    detector_seed_grid_campaign_spec,
    dist_emergence_campaign_spec,
)
from repro.campaign import runner as campaign_runner
from repro.campaign.engine import CampaignEngine
from repro.campaign.queue import JobQueue, QueueWorker
from repro.campaign.records import RunRecord
from repro.campaign.spec import CampaignSpec
from repro.distsim import reduction as distsim_reduction
from repro.runtime import vector_backend  # noqa: F401  (the screen imports it lazily)
from repro.runtime.simulator import Simulator
from repro.scenarios import spec as scenarios_spec
from repro.search import engine as search_engine
from repro.search import properties as search_properties
from repro.search import shrink as search_shrink
from repro.search.engine import (
    IN_MODEL_VIOLATION,
    OUT_OF_MODEL_VIOLATION,
    SearchConfig,
    run_search,
)

from tracer import Tracer


@dataclass
class Outcome:
    """What one timed instance produced."""

    ops: int
    failed: int
    items: List[str]
    #: The throughput numerator: candidates, simulated steps or jobs.
    work: float
    notes: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload is in the benchmark (copied into BENCHMARK.json).
    why: str
    prepare: Callable[[int, Path], Any]
    execute: Callable[[Any], Outcome]


def digest(value: Any) -> str:
    """Short content digest of a JSON-able value (canonical key order)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _raised(ops: int, error: Exception) -> Outcome:
    """A raise fails every operation of the instance."""
    return Outcome(ops, ops, [], 0, {"error": f"{type(error).__name__}: {error}"})


# ----------------------------------------------------------------------
# search-narrow and search-wide: falsify -> shrink -> certify
# ----------------------------------------------------------------------

def _search_outcome(config: SearchConfig) -> Outcome:
    try:
        report = run_search(config)
    except Exception as error:
        return _raised(config.population * config.generations, error)
    items = [digest([c.signature, c.fitness, c.classification()]) for c in report.candidates]
    items += [
        digest(
            {
                "kind": f.kind,
                "recipe": f.recipe,
                "shrunk_length": f.shrunk_length,
                "evaluations": f.evaluations,
                "removed_crashes": f.removed_crashes,
                "steps": list(f.schedule.steps),
                "crash_steps": sorted(f.schedule.crash_steps.items()),
                "certificate": f.certificate.to_payload(),
                "confirm": f.confirm_details,
            }
        )
        for f in report.findings
    ]
    # Invariants of any search: every candidate evaluated once, shrinking
    # never lengthens, and a violation's side of the model boundary matches
    # its certificate.
    broken = abs(len(report.candidates) - config.population * config.generations)
    for finding in report.findings:
        side = {IN_MODEL_VIOLATION: True, OUT_OF_MODEL_VIOLATION: False}.get(finding.kind)
        if finding.shrunk_length > finding.original_length or (
            side is not None and finding.certificate.in_model is not side
        ):
            broken += 1
    return Outcome(
        ops=len(report.candidates) + len(report.findings),
        failed=broken,
        items=items,
        work=len(report.candidates),
        notes={
            "in_model_violations": report.in_model_violation_count(),
            "findings": len(report.findings),
            "screen_lane": search_properties.last_screen_plan().get("lane"),
        },
    )


def _narrow_config(seed: int, workdir: Path) -> SearchConfig:
    # `repro search` defaults (eval_chunk 4, horizon 20 000, population 16)
    # for one generation.  top=0 shrinks confirmed violations only: shrinking
    # 0 to 3 near-misses at this horizon swung the time from 2.7 s to 15 s
    # between seeds.  search-wide carries the shrink layer.
    return SearchConfig(generations=1, top=0, seed=seed)


def _wide_config(seed: int, workdir: Path) -> SearchConfig:
    return SearchConfig(
        generations=2, population=256, eval_chunk=256, horizon=2_400, seed=seed
    )


# ----------------------------------------------------------------------
# detector-sweep: the E2 seed grid through an inline CampaignEngine
# ----------------------------------------------------------------------

def _detector_spec(seed: int, workdir: Path) -> CampaignSpec:
    # Input seed 0 is exactly the `e2-seeds` campaign (schedule seeds 11, 13, 17).
    return detector_seed_grid_campaign_spec(
        horizon=60_000, seeds=[1_000 * seed + offset for offset in (11, 13, 17)]
    )


def _record_items(records: List[RunRecord]) -> List[str]:
    return [digest(record.canonical().to_json_line()) for record in records]


def _detector_outcome(spec: CampaignSpec) -> Outcome:
    positions = len(spec.expand())
    try:
        with CampaignEngine() as engine:
            records = engine.run(spec).records
    except Exception as error:
        return _raised(positions, error)
    steps = sum(int(record.params["horizon"]) for record in records)
    return Outcome(
        ops=len(records),
        failed=abs(len(records) - positions),
        items=_record_items(records),
        work=steps,
        # Observed, never asserted: a finite horizon can end before a run
        # converges.
        notes={"unsatisfied_runs": sum(not r.payload["satisfied"] for r in records)},
    )


# ----------------------------------------------------------------------
# dist-queue: E12 through the durable queue, drained in-process
# ----------------------------------------------------------------------

#: E12 runs are crossed with this many schedule seeds per input.
DIST_SEEDS = 16


@dataclass(frozen=True)
class QueueInputs:
    spec: CampaignSpec
    workdir: Path


def _dist_inputs(seed: int, workdir: Path) -> QueueInputs:
    base = dist_emergence_campaign_spec(horizon=2_400)
    runs = [{k: v for k, v in run.items() if k != "seed"} for run in base.runs or []]
    seeds = [DIST_SEEDS * seed + offset for offset in range(DIST_SEEDS)]
    spec = CampaignSpec(
        name="dist-queue", kind="dist-timeliness", runs=runs, axes={"seed": seeds}
    )
    return QueueInputs(spec, Path(tempfile.mkdtemp(prefix="queue-", dir=workdir)))


def _report_broken(payload: Dict[str, Any], horizon: int) -> bool:
    """Definition 1 invariants of one E12 report.

    A set is at least as timely as its most timely member, the reduction
    keeps every recorded activation, and no message is delivered unsent.
    """
    members = payload["member_bounds"].values()
    messages = payload["messages"]
    return (
        payload["length"] != horizon
        or payload["set_bound"] > min(members)
        or messages["delivered"] > messages["sent"]
    )


def _dist_outcome(inputs: QueueInputs) -> Outcome:
    positions = len(inputs.spec.expand())
    try:
        # The `repro queue enqueue` / `repro queue work` path, in one process.
        with JobQueue(inputs.workdir / "queue.db") as queue:
            queue.enqueue(inputs.spec)
            QueueWorker(queue, "perfbench").run()
            status = queue.status()
            unfinished = status.counts.get("poisoned", 0) + status.unfinished()
            records = [] if unfinished else queue.records_for(inputs.spec.name)
    except Exception as error:
        return _raised(positions, error)
    finally:
        shutil.rmtree(inputs.workdir, ignore_errors=True)
    broken = sum(
        _report_broken(r.payload, int(r.params["horizon"])) for r in records
    )
    return Outcome(
        ops=positions,
        failed=(positions if unfinished else 0) + broken,
        items=_record_items(records),
        work=len(records),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "search-narrow",
            "the CLI user's search (repro search defaults, one generation, "
            "near-misses unshrunk): 4-candidate screens the auto planner sends to the column lane",
            _narrow_config,
            _search_outcome,
        ),
        Workload(
            "search-wide",
            "one 256-candidate screen per generation at horizon 2400: the column "
            "lane wins the screen, realize and certify carry the time",
            _wide_config,
            _search_outcome,
        ),
        Workload(
            "detector-sweep",
            "the E2 seed grid at horizon 60000: only scenario compile and kernel "
            "stepping, every run a distinct scenario",
            _detector_spec,
            _detector_outcome,
        ),
        Workload(
            "dist-queue",
            "E12 runs crossed with a seed axis through the durable queue: the "
            "only path through distsim and campaign.queue",
            _dist_inputs,
            _dist_outcome,
        ),
    )
}


# ----------------------------------------------------------------------
# Layers wrapped by a traced instance
# ----------------------------------------------------------------------

def _add(key: str, measure: Callable[[tuple, Any], float]):
    def hook(stats: Dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
        stats[key] = stats.get(key, 0) + measure(args, result)

    return hook


def _screen_hook(stats: Dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
    stats["candidates"] = stats.get("candidates", 0) + len(args[1])
    lane = search_properties.last_screen_plan().get("lane", "none")
    stats[f"lane_{lane}"] = stats.get(f"lane_{lane}", 0) + 1


def _memo_hook():
    """Counts a memo hit whenever the same buffer object comes back."""
    seen: Dict[int, Any] = {}

    def hook(stats: Dict[str, float], args: tuple, kwargs: dict, result: Any) -> None:
        if result is None:
            return
        stats["memo_hits"] = stats.get("memo_hits", 0) + (id(result) in seen)
        seen[id(result)] = result  # keeps the buffer alive, so ids stay unique

    return hook


def traced_layers() -> List[tuple]:
    """(owner, attribute, layer, extras hook), patched where callers look them up."""
    layers = [
        (search_engine, "realize", "search.realize", None),
        (search_engine, "screen_generation", "search.screen_generation", _screen_hook),
        (search_properties.ScheduleProperty, "screen", "search.screen", None),
        (search_engine, "certify_schedule", "search.certify", None),
        (search_engine, "best_witness", "search.certify", None),
        (
            search_shrink,
            "shrink_schedule",
            "search.shrink",
            _add("evaluations", lambda args, result: result.evaluations),
        ),
        (
            CampaignEngine,
            "run",
            "campaign.engine.run",
            _add("deduplicated", lambda args, result: result.deduplicated),
        ),
        (campaign_runner, "compiled_schedule_for", "campaign.compiled_schedule_for", _memo_hook()),
        # The runner imported the name; distsim looks it up in scenarios.spec.
        (campaign_runner, "build_generator", "scenarios.build_generator", None),
        (scenarios_spec, "build_generator", "scenarios.build_generator", None),
        (
            Simulator,
            "run_fast",
            "runtime.run_fast",
            _add("steps", lambda args, result: result.steps_executed),
        ),
        # The detector kind imports it inside the call, from the module.
        (analysis_metrics, "run_detector_experiment", "analysis.run_detector_experiment", None),
        (
            distsim_reduction,
            "run_timeline",
            "distsim.run_timeline",
            _add("messages", lambda args, result: result.stats.sent),
        ),
        (distsim_reduction, "timeliness_report", "distsim.timeliness_report", None),
    ]
    layers += [
        (cls, "confirm", "search.confirm", None)
        for cls in search_properties.PROPERTY_CLASSES.values()
        if "confirm" in cls.__dict__
    ]
    layers += [
        (JobQueue, method, f"queue.{method}", None)
        for method in ("enqueue", "lease", "complete", "heartbeat", "records_for")
    ]
    return layers


def install(tracer: Tracer) -> None:
    """Wrap every traced layer (layers a workload never calls report 0 calls)."""
    for owner, attribute, name, hook in traced_layers():
        tracer.wrap(owner, attribute, name, hook)
