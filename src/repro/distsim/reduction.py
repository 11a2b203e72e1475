"""The timeline→schedule reduction: set timeliness *derived* from messages.

This module is the distsim tier's core deliverable.  A recorded
:class:`Timeline` holds the engine's flat activation arrays; it is lowered by
:func:`compile_timeline`, which hands the pid array itself to the exact
:class:`~repro.core.schedule.CompiledSchedule` format the rest of the
reproduction executes (crash metadata included), and
:func:`timeliness_report` derives the paper's Definition 1 quantities from
message-level facts:

* the *reduced-schedule* bounds — the set-timeliness bytes scan
  (:func:`~repro.core.timeliness.best_timeliness_steps`) run on the pid
  array packed once, per set and per member;
* the *time-domain* quantities that explain them — the largest gap between
  consecutive ``P`` activations and the smallest gap between consecutive
  ``Q`` activations, read off the time array at C speed; and
* :func:`predicted_bound`, the soundness bridge: any ``P``-free stretch
  spans at most ``max_p_gap`` simulated time, during which at most
  ``⌊max_p_gap / min_q_gap⌋ + 1`` ``Q``-steps fit, so the reduced
  schedule's minimal bound never exceeds ``⌊max_p_gap / min_q_gap⌋ + 2``.

That inequality is what "set timeliness emerges from message timeliness"
means operationally: bound the coordinator's request spacing and the
replicas' response latency and you have bounded the reduced schedule's
timeliness bound — no postulate required.  The report is consumed by the
timeliness-matrix/solvability analyses (via the reduced compiled schedule)
and by experiment E12 through :func:`run_dist_timeliness_kind`.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import sub
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.schedule import CompiledSchedule, pack_steps
from ..core.timeliness import TimelinessWitness, best_timeliness_steps
from ..errors import ConfigurationError
from ..memo import LRUMemo
from ..types import ProcessId, ProcessSet, process_set
from .engine import StepRecord, TimelineEngine
from .workloads import DistSimGenerator


@dataclass(frozen=True)
class MessageStats:
    """Message-level accounting for one recorded timeline."""

    sent: int
    delivered: int
    dropped_loss: int
    dropped_partition: int
    dropped_down: int
    max_latency: int
    mean_latency: float

    def to_payload(self) -> Dict[str, Any]:
        """JSON-normalized form for campaign records."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
            "dropped_down": self.dropped_down,
            "max_latency": self.max_latency,
            "mean_latency": round(self.mean_latency, 3),
        }


@dataclass(frozen=True)
class Timeline:
    """A recorded finite prefix of one distributed timeline.

    The activations are held as the engine recorded them, one flat array per
    field with index ``i`` for activation ``i``: ``pids`` (``array('i')``,
    the reduced step sequence), ``times``, ``srcs`` (the sender of a
    delivery, 0 for a tick) and ``send_times`` (-1 for a tick) — see
    :class:`~repro.distsim.engine.TimelineEngine`.  ``crash_steps`` is the
    calibrated step-domain crash metadata of the *infinite* timeline,
    matching generator conventions, so the lowered compiled schedule
    round-trips ``prefix()`` faulty hints exactly like the generator path.
    """

    n: int
    pids: array
    times: array
    srcs: array
    send_times: array
    crash_steps: Mapping[ProcessId, int]
    stats: MessageStats
    description: str

    def __len__(self) -> int:
        return len(self.pids)

    @property
    def records(self) -> Tuple[StepRecord, ...]:
        """The activations as :class:`StepRecord` objects, built from the arrays."""
        return tuple(
            StepRecord(index, time, pid, "deliver" if src else "tick", src, send_time)
            for index, (time, pid, src, send_time) in enumerate(
                zip(self.times, self.pids, self.srcs, self.send_times)
            )
        )

    @property
    def duration(self) -> int:
        """Simulated time of the last activation (0 for an empty timeline)."""
        return self.times[-1] if self.times else 0

    def step_pids(self) -> Tuple[ProcessId, ...]:
        """The reduced step sequence: activation process ids in order."""
        return tuple(self.pids)


def run_timeline(generator: DistSimGenerator, length: int) -> Timeline:
    """Record the first ``length`` activations of a distsim generator.

    Advances a fresh engine over the generator's configuration by exactly
    ``length`` activations in one call, so the recorded step sequence is —
    by the determinism contract — byte-identical to what
    ``generator.compile(length)`` buffers.  Raises
    :class:`~repro.errors.ConfigurationError` when the timeline ends early
    (every process permanently crashed before ``length`` activations).
    """
    if not isinstance(generator, DistSimGenerator):
        raise ConfigurationError(
            "run_timeline needs a distsim workload generator, got "
            f"{type(generator).__name__}"
        )
    if length < 0:
        raise ConfigurationError(f"timeline length must be non-negative, got {length}")
    engine = TimelineEngine(generator.config)
    recorded = engine.advance(length)
    if recorded < length:
        raise ConfigurationError(
            f"{generator.label} timeline ended after {recorded} of "
            f"{length} requested steps: no alive process left to schedule"
        )
    mean = engine.total_latency / engine.delivered if engine.delivered else 0.0
    stats = MessageStats(
        sent=engine.sent,
        delivered=engine.delivered,
        dropped_loss=engine.dropped_loss,
        dropped_partition=engine.dropped_partition,
        dropped_down=engine.dropped_down,
        max_latency=engine.max_latency,
        mean_latency=mean,
    )
    return Timeline(
        n=generator.n,
        pids=engine.pids,
        times=engine.times,
        srcs=engine.srcs,
        send_times=engine.send_times,
        crash_steps=dict(generator.crash_pattern.crash_steps),
        stats=stats,
        description=generator.description,
    )


def compile_timeline(timeline: Timeline) -> CompiledSchedule:
    """Lower a recorded timeline to the kernel's compiled-schedule format.

    The buffer is the timeline's pid array itself; the crash metadata is the
    timeline's calibrated step-domain pattern.  For any
    :class:`DistSimGenerator` ``g`` and length ``L``,
    ``compile_timeline(run_timeline(g, L))`` equals ``g.compile(L)`` byte
    for byte — the differential conformance suite pins this.
    """
    return CompiledSchedule(
        n=timeline.n,
        steps=timeline.pids,
        crash_steps=dict(timeline.crash_steps),
        description=timeline.description,
    )


def predicted_bound(max_p_gap: int, min_q_gap: int, total_q_steps: int) -> int:
    """The message-level upper bound on the reduced schedule's minimal bound.

    Sound for any timeline in which every ``P``-free stretch spans at most
    ``max_p_gap`` simulated time and consecutive ``Q`` activations are at
    least ``min_q_gap`` apart: at most ``⌊max_p_gap / min_q_gap⌋ + 1``
    ``Q``-steps fit in such a stretch, so ``⌊max_p_gap / min_q_gap⌋ + 2``
    satisfies Definition 1.  When ``min_q_gap`` is zero (simultaneous ``Q``
    activations) or there are no ``Q`` steps, the bound degrades to the
    always-valid ``total_q_steps + 1``.
    """
    if max_p_gap < 0 or min_q_gap < 0 or total_q_steps < 0:
        raise ConfigurationError(
            "predicted_bound needs non-negative arguments, got "
            f"max_p_gap={max_p_gap}, min_q_gap={min_q_gap}, "
            f"total_q_steps={total_q_steps}"
        )
    if min_q_gap == 0:
        return total_q_steps + 1
    return min(max_p_gap // min_q_gap + 2, total_q_steps + 1)


def _time_gaps(
    timeline: Timeline,
    p_set: ProcessSet,
    q_set: ProcessSet,
    packed: Optional[bytes] = None,
) -> Tuple[int, int]:
    """``(max_p_gap, min_q_gap)`` in simulated time over the recorded prefix.

    ``max_p_gap`` includes the leading gap (timeline start to first ``P``
    activation) and the trailing gap (last ``P`` activation to the end), so
    boundary ``P``-free segments are covered; with no ``P`` activation at all
    it is the whole duration.  ``min_q_gap`` is the smallest difference
    between consecutive ``Q`` activation times (0 when two coincide, which
    makes :func:`predicted_bound` fall back to the trivial bound).

    The member times are selected at C speed: the pid array's low bytes are
    packed once (or come in as ``packed``) and ``bytes.translate`` marks each
    set's activations for ``itertools.compress``; a pid array that does not
    pack (a pid above 255) selects with the set's own membership test.
    """
    pids = timeline.pids
    if packed is None:
        packed = pack_steps(pids)
    if packed is not None:

        def selectors(members: ProcessSet) -> Iterable[int]:
            marks = bytearray(256)
            for pid in members:
                if pid < 256:  # a wider pid has no activation in packed bytes
                    marks[pid] = 1
            return packed.translate(marks)

    else:

        def selectors(members: ProcessSet) -> Iterable[bool]:
            return map(members.__contains__, pids)

    p_times = list(compress(timeline.times, selectors(p_set)))
    q_times = list(compress(timeline.times, selectors(q_set)))
    duration = timeline.duration
    if p_times:
        inner = max(map(sub, p_times[1:], p_times), default=0)
        max_p_gap = max(p_times[0], duration - p_times[-1], inner)
    else:
        max_p_gap = duration
    if len(q_times) >= 2:
        min_q_gap = min(map(sub, q_times[1:], q_times))
    else:
        min_q_gap = 0
    return max_p_gap, min_q_gap


@dataclass(frozen=True)
class DistTimelinessReport:
    """Set timeliness of ``P`` w.r.t. ``Q``, derived from a recorded timeline.

    ``set_bound`` and ``member_bounds`` are Definition 1's minimal bounds on
    the reduced schedule; ``max_p_gap``/``min_q_gap``/``predicted`` are the
    message-level explanation (``set_bound <= predicted`` always);
    ``set_timely``/``timely_members`` apply the report's ``threshold``;
    ``emerged`` is the paper's central distinction made executable — the set
    is timely (with evidence: the bound is not a finite-prefix artifact)
    while no individual member is.
    """

    n: int
    length: int
    duration: int
    p_set: ProcessSet
    q_set: ProcessSet
    threshold: int
    set_bound: int
    set_saturated: bool
    set_evidence_ratio: float
    member_bounds: Mapping[ProcessId, int]
    max_p_gap: int
    min_q_gap: int
    predicted: int
    stats: MessageStats

    @property
    def set_timely(self) -> bool:
        """Whether ``P`` is timely w.r.t. ``Q`` at the threshold, with evidence."""
        return self.set_bound <= self.threshold and not self.set_saturated

    @property
    def timely_members(self) -> Tuple[ProcessId, ...]:
        """Members of ``P`` individually timely w.r.t. ``Q`` at the threshold."""
        return tuple(
            pid for pid, bound in sorted(self.member_bounds.items())
            if bound <= self.threshold
        )

    @property
    def emerged(self) -> bool:
        """True when the set is timely while no individual member is."""
        return self.set_timely and not self.timely_members

    def to_payload(self) -> Dict[str, Any]:
        """JSON-normalized form for campaign records and the E12 table."""
        return {
            "n": self.n,
            "length": self.length,
            "duration": self.duration,
            "p_set": sorted(self.p_set),
            "q_set": sorted(self.q_set),
            "threshold": self.threshold,
            "set_bound": self.set_bound,
            "set_saturated": self.set_saturated,
            "set_evidence_ratio": round(self.set_evidence_ratio, 4),
            "member_bounds": {
                str(pid): bound for pid, bound in sorted(self.member_bounds.items())
            },
            "set_timely": self.set_timely,
            "timely_members": list(self.timely_members),
            "emerged": self.emerged,
            "max_p_gap": self.max_p_gap,
            "min_q_gap": self.min_q_gap,
            "predicted_bound": self.predicted,
            "messages": self.stats.to_payload(),
        }

    def describe_lines(self) -> List[str]:
        """Readable multi-line summary for the CLI."""
        p = "{" + ",".join(str(pid) for pid in sorted(self.p_set)) + "}"
        q = "{" + ",".join(str(pid) for pid in sorted(self.q_set)) + "}"
        members = ", ".join(
            f"p{pid}:{bound}" for pid, bound in sorted(self.member_bounds.items())
        )
        stats = self.stats
        return [
            f"set {p} w.r.t. {q}: minimal bound {self.set_bound} "
            f"(threshold {self.threshold}, evidence {self.set_evidence_ratio:.3f})",
            f"member bounds: {members}",
            f"time domain: max P-gap {self.max_p_gap}, min Q-gap {self.min_q_gap}, "
            f"predicted bound {self.predicted}",
            f"messages: {stats.sent} sent, {stats.delivered} delivered "
            f"(loss {stats.dropped_loss}, partition {stats.dropped_partition}, "
            f"down {stats.dropped_down}), latency mean {stats.mean_latency:.2f} "
            f"max {stats.max_latency}",
            f"set timely: {self.set_timely}; timely members: "
            f"{list(self.timely_members) or 'none'}; emerged: {self.emerged}",
        ]


def timeliness_report(
    timeline: Timeline,
    p_set: Iterable[ProcessId],
    q_set: Iterable[ProcessId],
    threshold: int = 8,
) -> DistTimelinessReport:
    """Derive Definition 1 quantities for ``(P, Q)`` from a recorded timeline.

    Raises :class:`~repro.errors.ConfigurationError` when ``threshold`` is
    below 1 or when ``P`` or ``Q`` names a process outside ``Πn``.
    """
    if threshold < 1:
        raise ConfigurationError(f"timeliness threshold must be >= 1, got {threshold}")
    p_frozen = process_set(p_set)
    q_frozen = process_set(q_set)
    for name, members in (("P", p_frozen), ("Q", q_frozen)):
        outside = sorted(pid for pid in members if not 1 <= pid <= timeline.n)
        if outside:
            raise ConfigurationError(
                f"timeliness report: {name} names processes {outside} outside "
                f"Πn = {{1..{timeline.n}}}"
            )
    # The pid array packed once feeds every scan below.
    packed = pack_steps(timeline.pids)
    steps: Sequence[ProcessId] = timeline.pids if packed is None else packed

    def analyze(members: ProcessSet) -> TimelinessWitness:
        return best_timeliness_steps(steps, timeline.n, ((members, q_frozen),))[1]

    witness = analyze(p_frozen)
    member_bounds = {
        pid: analyze(frozenset((pid,))).minimal_bound for pid in sorted(p_frozen)
    }
    max_p_gap, min_q_gap = _time_gaps(timeline, p_frozen, q_frozen, packed)
    predicted = predicted_bound(max_p_gap, min_q_gap, witness.total_q_steps)
    return DistTimelinessReport(
        n=timeline.n,
        length=len(timeline),
        duration=timeline.duration,
        p_set=p_frozen,
        q_set=q_frozen,
        threshold=threshold,
        set_bound=witness.minimal_bound,
        set_saturated=witness.saturated,
        set_evidence_ratio=witness.evidence_ratio(),
        member_bounds=member_bounds,
        max_p_gap=max_p_gap,
        min_q_gap=min_q_gap,
        predicted=predicted,
        stats=timeline.stats,
    )


#: Worker-local memo of seed-free ``dist-timeliness`` payloads (LRU): the
#: canonical JSON of a run's parameters minus ``seed`` maps to the canonical
#: JSON of its payload minus ``description``.  Sound because a seed reaches
#: the timeline only through ``config.seed``, which a seed-free config
#: (:meth:`~repro.distsim.engine.DistConfig.seed_free`) never draws from,
#: and the payload only through the generator's ``description``.
_PAYLOAD_MEMO: "LRUMemo[str, str]" = LRUMemo(16)


def run_dist_timeliness_kind(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Campaign kind ``dist-timeliness``: record, reduce, and report.

    ``params`` is a flat JSON-normalized run: the usual scenario-family
    selection (``schedule`` must name a distsim family) plus ``horizon``,
    ``p_set``, ``q_set`` and an optional ``threshold``.  Returns the
    report's payload — one campaign record per parameter combination, which
    is how E12 sweeps latency-distribution parameters.

    A seed-free run records its timeline once per process: runs that differ
    only in ``seed`` share one memoized payload (:data:`_PAYLOAD_MEMO`),
    parsed afresh for every caller and completed with the run's own
    ``description``, so each payload equals a fresh run's byte for byte.
    """
    from ..campaign.spec import canonical_json
    from ..scenarios.spec import build_generator

    generator = build_generator(dict(params))
    if not isinstance(generator, DistSimGenerator):
        raise ConfigurationError(
            "dist-timeliness runs need a distsim family (dist-*), got "
            f"schedule={params.get('schedule')!r}"
        )
    horizon = int(params.get("horizon", 2000))
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    p_raw = params.get("p_set")
    q_raw = params.get("q_set")
    if not p_raw or not q_raw:
        raise ConfigurationError(
            "dist-timeliness runs need non-empty p_set and q_set parameters"
        )
    key = None
    if generator.config.seed_free():
        key = canonical_json(
            {name: value for name, value in params.items() if name != "seed"}
        )
        memoized = _PAYLOAD_MEMO.get(key)
        if memoized is not None:
            payload = json.loads(memoized)
            payload["description"] = generator.description
            return payload
    timeline = run_timeline(generator, horizon)
    report = timeliness_report(
        timeline,
        frozenset(int(pid) for pid in p_raw),
        frozenset(int(pid) for pid in q_raw),
        threshold=int(params.get("threshold", 8)),
    )
    payload = report.to_payload()
    payload["schedule"] = params.get("schedule")
    if key is not None:
        _PAYLOAD_MEMO.put(key, canonical_json(payload))
    payload["description"] = timeline.description
    return payload
