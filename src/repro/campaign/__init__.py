"""Campaign engine: declarative experiment grids, fanned out across workers.

A *campaign* is a declarative description of many simulator runs — a base
configuration, an optional explicit run list, and an optional grid of axes
whose cross product is swept (schedule family × (n, t, k) × timeout/accusation
policy × seed).  The engine expands the grid deterministically, deduplicates
repeated (schedule, algorithm) configurations through a content-addressed
result cache, executes the remaining runs serially or across worker processes
with chunked dispatch, and streams structured per-run records (JSON-lines)
into the :mod:`repro.analysis.reporting` aggregation helpers.

Layering::

    CampaignSpec ──expand──▶ [RunSpec] ──engine──▶ [RunRecord] ──▶ tables
                                  │                     ▲
                                  └── ResultCache ──────┘   (content-addressed)

Every run kind executes through the execution kernel's bare loop
(:meth:`Simulator.run_fast`); schedule sources — the classic generator
families and the composable scenario families alike — are selected by the
``schedule`` parameter and built by :func:`repro.scenarios.spec.build_generator`,
so a campaign sweeps scenarios exactly like numeric axes.  Schedule-driven
kinds run over :class:`~repro.core.schedule.CompiledSchedule` buffers,
compiled once per scenario in each worker and shared across the replicas the
engine batches into that worker's chunks (see
:func:`repro.campaign.runner.compiled_schedule_for`).  The experiment
harnesses in :mod:`repro.analysis.experiment` are thin adapters that build a
spec, run it through an engine, and shape the records into the paper's tables.
"""

from .cache import ResultCache
from .engine import CampaignEngine, CampaignResult
from .faults import FaultInjector, FaultPlan, InjectedFault
from .records import RunRecord, read_jsonl, write_jsonl
from .spec import CampaignSpec, RunSpec, canonical_json, content_key
from .queue import (
    DurableCampaignEngine,
    EnqueueReport,
    JobQueue,
    LeasedJob,
    QueueStatus,
    QueueWorker,
    drain_queue,
)
from .runner import (
    available_kinds,
    build_generator,
    compiled_schedule_for,
    execute_spec,
    register_kind,
    schedule_signature,
)

__all__ = [
    "build_generator",
    "compiled_schedule_for",
    "schedule_signature",
    "CampaignEngine",
    "CampaignResult",
    "CampaignSpec",
    "DurableCampaignEngine",
    "EnqueueReport",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "JobQueue",
    "LeasedJob",
    "QueueStatus",
    "QueueWorker",
    "ResultCache",
    "RunRecord",
    "RunSpec",
    "available_kinds",
    "canonical_json",
    "content_key",
    "drain_queue",
    "execute_spec",
    "read_jsonl",
    "register_kind",
    "write_jsonl",
]
