"""Message-passing discrete-event tier with a timeline→schedule reduction.

The paper postulates set timeliness over shared-memory schedules; its
motivation, however, is partially-synchronous *distributed* systems where the
timeliness of a set of processes emerges from message delays.  This package
closes that gap:

* :mod:`repro.distsim.latency` — pluggable message latency models
  (constant, uniform, exponential, heavy-tailed Pareto, diurnal modulation);
* :mod:`repro.distsim.engine` — the timeline engine, one resumable event
  loop over a heap of ``(time, seq, ...)`` entries (integer simulated time,
  FIFO tie-breaking by scheduling sequence) that records activations into
  flat arrays: processes exchange
  messages through channels with latency distributions, partitions, loss
  windows, recoverable outages, and permanent crashes; every *activation*
  (a tick or a delivery at an alive process) is one schedule step;
* :mod:`repro.distsim.workloads` — production-shaped workload families
  (heavy-tailed arrivals, diurnal load, correlated failures, rolling
  restarts, sticky failover) exposed as ordinary scenario families;
* :mod:`repro.distsim.reduction` — the reduction: :func:`run_timeline`
  records a message-level timeline, :func:`compile_timeline` lowers it to
  the existing :class:`~repro.core.schedule.CompiledSchedule` format
  (crash metadata included), and :func:`timeliness_report` derives set
  timeliness from message timeliness for the timeliness-matrix and
  solvability analyses to consume.

Determinism contract: for a fixed configuration (including the seed), every
run of the engine produces the identical event order, the identical step
sequence, and therefore the identical compiled schedule — byte for byte the
same buffer the scenario-family generator path produces.
"""

from .engine import DistConfig, StepRecord, TimelineEngine
from .latency import LatencyModel, available_latency_models, latency_from_params
from .reduction import (
    DistTimelinessReport,
    MessageStats,
    Timeline,
    compile_timeline,
    predicted_bound,
    run_dist_timeliness_kind,
    run_timeline,
    timeliness_report,
)
from .workloads import DistSimGenerator, dist_family_names

__all__ = [
    "DistConfig",
    "DistSimGenerator",
    "DistTimelinessReport",
    "LatencyModel",
    "MessageStats",
    "StepRecord",
    "Timeline",
    "TimelineEngine",
    "available_latency_models",
    "compile_timeline",
    "dist_family_names",
    "latency_from_params",
    "predicted_bound",
    "run_dist_timeliness_kind",
    "run_timeline",
    "timeliness_report",
]
