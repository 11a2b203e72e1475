"""Production-shaped distsim workload families as ordinary scenario families.

Each family is a builder from JSON-normalized parameters to a
:class:`DistSimGenerator` — a standard
:class:`~repro.schedules.base.ScheduleGenerator` whose step stream is the
reduced timeline of a :class:`~repro.distsim.engine.DistConfig`.  Because the
adapter speaks the generator protocol (``generate``/``compile``/``stream``,
crash pattern in step indices), every existing consumer — campaigns, the
execution kernel, the search screen, `repro scenarios` — runs
dist workloads unchanged.  ``compile(L)`` advances a fresh engine by exactly
``L`` activations in one call and takes its pid array as the buffer; the
step stream advances it in chunks of :data:`~repro.distsim.engine.ADVANCE_CHUNK`.

Families (registered in :mod:`repro.scenarios.families` under these names):

``dist-heavy-tail``
    Heavy-tailed (Pareto) inter-arrival ticks, broadcast heartbeats,
    heavy-tailed latency: most exchanges are fast, stragglers are huge.
``dist-diurnal``
    Tick rates and latencies swell and shrink on a shared diurnal period —
    the daily load curve of a user-facing service.
``dist-correlated-failures``
    Processes grouped into racks; whole racks drop on a maintenance cadence
    (correlated, recurring outages) while the rest keep gossiping.
``dist-rolling-restart``
    A staggered restart wave: each process is down for its slice of every
    deploy cycle, one after another, forever.
``dist-sticky-failover``
    A coordinator fires requests at a primary replica chosen by sticky
    epochs with doubling lengths (or round-robin, for the control arm) —
    the message-passing reconstruction of the paper's Figure 1 and the
    E12 emergence workload.

All families accept the shared fault parameters ``outages``, ``partitions``,
``loss`` / ``loss_rate`` and ``crash_times`` on top of their own knobs.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Mapping, Tuple

from ..errors import ConfigurationError
from ..schedules.base import ScheduleGenerator
from ..types import ProcessId
from .engine import (
    ADVANCE_CHUNK,
    BroadcastPolicy,
    DistConfig,
    FailoverPolicy,
    LossWindow,
    Outage,
    PartitionWindow,
    TickSpec,
    TimelineEngine,
    calibrated_crash_pattern,
)
from .latency import latency_from_params


class DistSimGenerator(ScheduleGenerator):
    """A schedule generator backed by a discrete-event timeline.

    The step stream is the projection of the timeline's activations onto
    process ids; the crash pattern is the calibrated step-domain translation
    of the config's time-domain crashes, so ``compile()``/``generate()``
    carry exactly the metadata conventions of every other generator.  When
    the timeline ends (every process permanently crashed) and more steps are
    requested, the generator fails with the same "no alive process left"
    :class:`~repro.errors.ConfigurationError` contract the other families
    use.
    """

    def __init__(self, config: DistConfig, label: str) -> None:
        super().__init__(config.n, calibrated_crash_pattern(config))
        self.config = config
        self.label = label

    @property
    def description(self) -> str:
        """Family label plus the full replayable config provenance."""
        return f"{self.label} {self.config.describe()}"

    def _ended(self) -> ConfigurationError:
        return ConfigurationError(
            f"{self.label} timeline ended: no alive process left to schedule"
        )

    def _compile_steps(self, length: int) -> array:
        engine = TimelineEngine(self.config)
        if engine.advance(length) < length:
            raise self._ended()
        return engine.pids

    def _emit(self) -> Iterator[ProcessId]:
        engine = TimelineEngine(self.config)
        pids = engine.pids
        emitted = 0
        while True:
            target = emitted + ADVANCE_CHUNK
            try:
                recorded = engine.advance(target)
            except ConfigurationError:
                yield from pids[emitted:]  # the activations before the stall
                raise
            yield from pids[emitted:recorded]
            if recorded < target:
                raise self._ended()
            emitted = recorded


# ----------------------------------------------------------------------
# Shared parameter parsing
# ----------------------------------------------------------------------

def _require_n(params: Mapping[str, Any]) -> int:
    n = int(params["n"])
    if n < 1:
        raise ConfigurationError(f"dist workload needs n >= 1, got {n}")
    return n


def _parse_outages(params: Mapping[str, Any]) -> Tuple[Outage, ...]:
    entries = params.get("outages") or []
    outages: List[Outage] = []
    for entry in entries:
        spec = dict(entry)
        outages.append(
            Outage(
                start=int(spec["start"]),
                duration=int(spec["duration"]),
                period=int(spec.get("period", 0)),
                pid=int(spec["pid"]),
            )
        )
    return tuple(outages)


def _parse_partitions(params: Mapping[str, Any]) -> Tuple[PartitionWindow, ...]:
    entries = params.get("partitions") or []
    partitions: List[PartitionWindow] = []
    for entry in entries:
        spec = dict(entry)
        groups = tuple(
            frozenset(int(pid) for pid in group) for group in spec.get("groups", [])
        )
        partitions.append(
            PartitionWindow(
                start=int(spec["start"]),
                duration=int(spec["duration"]),
                period=int(spec.get("period", 0)),
                groups=groups,
            )
        )
    return tuple(partitions)


def _parse_loss(params: Mapping[str, Any]) -> Tuple[LossWindow, ...]:
    windows: List[LossWindow] = []
    rate = float(params.get("loss_rate", 0.0))
    if rate > 0:
        # Shorthand: a whole-run lossy network.
        windows.append(LossWindow(start=0, duration=2**62, period=0, rate=rate))
    for entry in params.get("loss") or []:
        spec = dict(entry)
        windows.append(
            LossWindow(
                start=int(spec["start"]),
                duration=int(spec["duration"]),
                period=int(spec.get("period", 0)),
                rate=float(spec["rate"]),
            )
        )
    return tuple(windows)


def _parse_crash_times(params: Mapping[str, Any]) -> Dict[ProcessId, int]:
    entries = params.get("crash_times") or {}
    return {int(pid): int(time) for pid, time in dict(entries).items()}


def _with_defaults(params: Mapping[str, Any], defaults: Mapping[str, Any]) -> Dict[str, Any]:
    merged = dict(defaults)
    merged.update({key: value for key, value in params.items() if value is not None})
    return merged


def _faults(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "outages": _parse_outages(params),
        "partitions": _parse_partitions(params),
        "loss": _parse_loss(params),
        "crash_times": _parse_crash_times(params),
    }


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------

def heavy_tail(params: Dict[str, Any]) -> DistSimGenerator:
    """Heavy-tailed arrivals and latencies over broadcast heartbeats.

    Parameters: ``n``; ``seed``; ``interval`` (base tick gap, default 12);
    ``jitter`` (default 0.1); ``arrival_alpha`` (Pareto shape of the
    inter-arrival multiplier, default 1.5); latency model parameters
    (default ``pareto`` with scale 3, alpha 1.6); shared fault parameters.
    """
    n = _require_n(params)
    merged = _with_defaults(params, {"latency": "pareto", "latency_scale": 3})
    interval = int(merged.get("interval", 12))
    spec = TickSpec(
        interval=interval,
        jitter=float(merged.get("jitter", 0.1)),
        arrival_alpha=float(merged.get("arrival_alpha", 1.5)),
    )
    config = DistConfig(
        n=n,
        seed=int(merged.get("seed", 0)),
        ticks={pid: spec for pid in range(1, n + 1)},
        policy=BroadcastPolicy(n),
        latency=latency_from_params(merged),
        **_faults(merged),
    )
    return DistSimGenerator(config, "dist-heavy-tail")


def diurnal(params: Dict[str, Any]) -> DistSimGenerator:
    """Diurnal load: tick rates and latencies swing on a shared day period.

    Parameters: ``n``; ``seed``; ``interval`` (default 10); ``day`` (the
    diurnal period, default 600); ``amplitude`` (peak slowdown factor,
    default 1.5); latency model parameters (default ``uniform`` scale 2
    spread 4, modulated on the same period); shared fault parameters.
    """
    n = _require_n(params)
    day = int(params.get("day", 600))
    amplitude = float(params.get("amplitude", 1.5))
    merged = _with_defaults(
        params,
        {
            "latency": "uniform",
            "latency_scale": 2,
            "latency_spread": 4,
            "latency_period": day,
            "latency_amplitude": amplitude,
        },
    )
    spec = TickSpec(
        interval=int(merged.get("interval", 10)),
        jitter=float(merged.get("jitter", 0.05)),
        period=day,
        amplitude=amplitude,
    )
    config = DistConfig(
        n=n,
        seed=int(merged.get("seed", 0)),
        ticks={pid: spec for pid in range(1, n + 1)},
        policy=BroadcastPolicy(n),
        latency=latency_from_params(merged),
        **_faults(merged),
    )
    return DistSimGenerator(config, "dist-diurnal")


def correlated_failures(params: Dict[str, Any]) -> DistSimGenerator:
    """Rack-correlated recurring outages under broadcast gossip.

    Processes are grouped into racks of ``rack_size`` (default: two racks);
    rack ``r`` is down during its slice of every maintenance cycle — all rack
    members at once, which is what makes the failures *correlated*.
    Parameters: ``n``; ``seed``; ``interval`` (default 10); ``rack_size``;
    ``failure_period`` (slice length, default 400); ``outage`` (down time per
    slice, default 160, must be < ``failure_period``); latency model
    parameters (default ``exponential`` scale 3); shared fault parameters.
    """
    n = _require_n(params)
    merged = _with_defaults(params, {"latency": "exponential", "latency_scale": 3})
    rack_size = int(merged.get("rack_size", max(1, (n + 1) // 2)))
    if rack_size < 1:
        raise ConfigurationError(f"rack_size must be >= 1, got {rack_size}")
    failure_period = int(merged.get("failure_period", 400))
    outage = int(merged.get("outage", 160))
    if not 0 < outage < failure_period:
        raise ConfigurationError(
            f"outage must lie in (0, failure_period={failure_period}), got {outage}"
        )
    racks = [
        list(range(start, min(start + rack_size, n + 1)))
        for start in range(1, n + 1, rack_size)
    ]
    if len(racks) < 2:
        raise ConfigurationError(
            f"correlated failures need at least two racks; rack_size={rack_size} "
            f"puts all {n} processes in one"
        )
    cycle = len(racks) * failure_period
    outages = tuple(
        Outage(start=index * failure_period + failure_period, duration=outage,
               period=cycle, pid=pid)
        for index, rack in enumerate(racks)
        for pid in rack
    )
    spec = TickSpec(
        interval=int(merged.get("interval", 10)),
        jitter=float(merged.get("jitter", 0.1)),
    )
    faults = _faults(merged)
    faults["outages"] = faults["outages"] + outages
    config = DistConfig(
        n=n,
        seed=int(merged.get("seed", 0)),
        ticks={pid: spec for pid in range(1, n + 1)},
        policy=BroadcastPolicy(n),
        latency=latency_from_params(merged),
        **faults,
    )
    return DistSimGenerator(config, "dist-correlated-failures")


def rolling_restart(params: Dict[str, Any]) -> DistSimGenerator:
    """A staggered restart wave cycling through every process forever.

    Each deploy cycle lasts ``n * stagger`` time units; process ``p`` is down
    for ``down`` units starting at its slot ``(p - 1) * stagger`` of every
    cycle (``down`` < ``stagger``, so restarts never overlap and somebody is
    always up).  Parameters: ``n``; ``seed``; ``interval`` (default 10);
    ``stagger`` (slot length, default 300); ``down`` (default 120);
    ``settle`` (quiet prefix before the first wave, default one cycle);
    latency model parameters (default ``uniform`` scale 2); shared fault
    parameters.
    """
    n = _require_n(params)
    merged = _with_defaults(params, {"latency": "uniform", "latency_scale": 2})
    stagger = int(merged.get("stagger", 300))
    down = int(merged.get("down", 120))
    if not 0 < down < stagger:
        raise ConfigurationError(
            f"down must lie in (0, stagger={stagger}), got {down}"
        )
    cycle = n * stagger
    settle = int(merged.get("settle", cycle))
    outages = tuple(
        Outage(start=settle + (pid - 1) * stagger, duration=down, period=cycle, pid=pid)
        for pid in range(1, n + 1)
    )
    spec = TickSpec(
        interval=int(merged.get("interval", 10)),
        jitter=float(merged.get("jitter", 0.1)),
    )
    faults = _faults(merged)
    faults["outages"] = faults["outages"] + outages
    config = DistConfig(
        n=n,
        seed=int(merged.get("seed", 0)),
        ticks={pid: spec for pid in range(1, n + 1)},
        policy=BroadcastPolicy(n),
        latency=latency_from_params(merged),
        **faults,
    )
    return DistSimGenerator(config, "dist-rolling-restart")


def sticky_failover(params: Dict[str, Any]) -> DistSimGenerator:
    """Coordinator/primary failover — the E12 set-timeliness emergence workload.

    The coordinator (default: the highest process id) ticks on a constant
    ``interval`` (default 8) and sends each request to the current primary
    replica; replicas never tick, so they activate exactly when requests
    reach them.  With ``balance="sticky-doubling"`` (default) the primary is
    sticky per epoch and epoch lengths double: the replica *set* answers
    every request — set-timely with a small bound w.r.t. the coordinator —
    while each individual replica is starved for exponentially growing
    stretches, so no member is timely.  ``balance="round-robin"`` is the
    control arm in which every member is timely.  Parameters: ``n``;
    ``seed``; ``interval``; ``epoch`` (first epoch length in requests,
    default 4); ``coordinator``; ``balance``; latency model parameters
    (default ``constant`` scale 2); shared fault parameters.
    """
    n = _require_n(params)
    if n < 3:
        raise ConfigurationError(
            f"sticky failover needs n >= 3 (two replicas + coordinator), got {n}"
        )
    merged = _with_defaults(params, {"latency": "constant", "latency_scale": 2})
    coordinator = int(merged.get("coordinator", n))
    if not 1 <= coordinator <= n:
        raise ConfigurationError(f"coordinator {coordinator} outside Πn = {{1..{n}}}")
    replicas = tuple(pid for pid in range(1, n + 1) if pid != coordinator)
    balance = str(merged.get("balance", "sticky-doubling"))
    if balance not in ("sticky-doubling", "round-robin"):
        raise ConfigurationError(
            f"unknown balance {balance!r}; expected 'sticky-doubling' or 'round-robin'"
        )
    epoch = int(merged.get("epoch", 4))
    if epoch < 1:
        raise ConfigurationError(f"epoch must be >= 1, got {epoch}")
    policy = FailoverPolicy(
        coordinator=coordinator,
        replicas=replicas,
        epoch=epoch,
        sticky=(balance == "sticky-doubling"),
    )
    spec = TickSpec(interval=int(merged.get("interval", 8)))
    config = DistConfig(
        n=n,
        seed=int(merged.get("seed", 0)),
        ticks={coordinator: spec},
        policy=policy,
        latency=latency_from_params(merged),
        **_faults(merged),
    )
    return DistSimGenerator(config, "dist-sticky-failover")


#: Family name -> (builder, one-line description); the scenario registry in
#: :mod:`repro.scenarios.families` registers exactly these.
DIST_FAMILIES: Dict[str, Tuple[Any, str]] = {
    "dist-heavy-tail": (
        heavy_tail,
        "message-passing: heavy-tailed arrivals/latencies over broadcast heartbeats",
    ),
    "dist-diurnal": (
        diurnal,
        "message-passing: diurnal load swing modulating tick rates and latencies",
    ),
    "dist-correlated-failures": (
        correlated_failures,
        "message-passing: whole racks drop on a recurring maintenance cadence",
    ),
    "dist-rolling-restart": (
        rolling_restart,
        "message-passing: staggered restart wave cycling through every process",
    ),
    "dist-sticky-failover": (
        sticky_failover,
        "message-passing: sticky-doubling failover — the set of replicas is "
        "timely, no single replica is (E12)",
    ),
}


def dist_family_names() -> List[str]:
    """Names of the distsim workload families, sorted."""
    return sorted(DIST_FAMILIES)
