"""The discrete-event timeline engine: messages, faults, and activations.

The engine simulates ``n`` processes exchanging messages over point-to-point
channels in integer simulated time.  Its output is a *timeline*: the ordered
sequence of **activations**, where an activation is either a local tick or a
message delivery at an alive process.  Each activation is one schedule step —
this is the bridge to the paper's model: the reduction in
:mod:`repro.distsim.reduction` projects activations onto their process ids to
obtain an ordinary schedule over ``Πn``, so set timeliness of the reduced
schedule is *derived* from tick rates and message latencies instead of being
postulated.

Fault vocabulary (all windows are :class:`Recurrence` patterns — one-shot
``[start, start + duration)`` intervals, or repeating every ``period`` time
units so unbounded timelines stay faultable forever):

* **outages** — a process is down for a window and then recovers; while down
  it neither ticks usefully nor receives (in-flight messages to it are
  dropped), but its tick clock keeps running so it resumes on schedule;
* **partitions** — while active, messages whose endpoints fall in different
  groups are dropped at send time;
* **loss windows** — while active, each message is independently dropped with
  the given rate (per-channel seeded RNG streams);
* **permanent crashes** — from ``crash_times[pid]`` on, the process never
  activates again (a crash event beats every other event at its instant,
  the process's first tick included); its tick source is retired, so a
  fully-crashed system drains its event heap and the timeline ends.

Execution: :meth:`TimelineEngine.advance` is the engine's one event loop.
It is resumable — every piece of loop state lives on the engine — and it
appends each activation to flat arrays (process id, time, and the
provenance of deliveries) instead of building a per-activation object;
:class:`StepRecord` objects exist only as a view built from those arrays.

Determinism: all randomness comes from per-purpose streams seeded as
``f"{seed}|{purpose}|{channel}"`` and consumed in event order, and the event
heap breaks time ties by scheduling order (a sequence number in every heap
entry) — so a fixed :class:`DistConfig` replays the identical timeline every
run, however the run is split into :meth:`~TimelineEngine.advance` calls.
"""

from __future__ import annotations

import heapq
import random
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError
from ..runtime.crash import CrashPattern
from ..types import ProcessId
from .latency import LatencyModel

#: Events-without-a-step budget: a guard against configurations that can
#: never activate anybody again yet keep generating queue traffic.
_STALL_BUDGET = 20_000


# ----------------------------------------------------------------------
# Message policies: who a ticking process sends to
# ----------------------------------------------------------------------

class MessagePolicy:
    """Decides the recipients of the messages sent on each tick.

    ``targets(pid, tick_index)`` must be a pure function of its arguments —
    policies carry no mutable state, which keeps the engine trivially
    replayable and lets crash calibration re-run the timeline from scratch.
    """

    def targets(self, pid: ProcessId, tick_index: int) -> Tuple[ProcessId, ...]:
        """Recipients of the messages ``pid`` sends on its ``tick_index``-th tick."""
        raise NotImplementedError

    def describe(self) -> str:
        """Readable one-line summary for timeline descriptions."""
        raise NotImplementedError


@dataclass(frozen=True)
class BroadcastPolicy(MessagePolicy):
    """Every tick broadcasts to all other processes (heartbeat gossip)."""

    n: int

    def targets(self, pid: ProcessId, tick_index: int) -> Tuple[ProcessId, ...]:
        """All processes of ``Πn`` except the sender itself."""
        return tuple(dst for dst in range(1, self.n + 1) if dst != pid)

    def describe(self) -> str:
        """Readable one-liner (``"broadcast"``)."""
        return "broadcast"


@dataclass(frozen=True)
class SilentPolicy(MessagePolicy):
    """Ticks never send messages (pure local activations)."""

    def targets(self, pid: ProcessId, tick_index: int) -> Tuple[ProcessId, ...]:
        """Nobody — silent ticks only advance the local schedule."""
        return ()

    def describe(self) -> str:
        """Readable one-liner (``"silent"``)."""
        return "silent"


@dataclass(frozen=True)
class FailoverPolicy(MessagePolicy):
    """A coordinator sends each request to the current primary replica.

    Only ``coordinator`` sends; its ``tick_index``-th request goes to the
    replica owning that index under one of two balance disciplines:

    * ``sticky=False`` — round-robin: request ``i`` goes to
      ``replicas[i % len(replicas)]``; every replica hears from the
      coordinator at a bounded rate, so every *member* is timely.
    * ``sticky=True`` — sticky epochs with doubling lengths: epoch ``e``
      lasts ``epoch * 2**e`` requests and is served entirely by
      ``replicas[e % len(replicas)]``.  This is the message-passing analogue
      of the paper's Figure 1: the *set* of replicas answers every request
      (set timely w.r.t. the coordinator with a small bound), while each
      individual replica is starved for exponentially growing stretches —
      no member is timely.
    """

    coordinator: ProcessId
    replicas: Tuple[ProcessId, ...]
    epoch: int = 4
    sticky: bool = True

    def targets(self, pid: ProcessId, tick_index: int) -> Tuple[ProcessId, ...]:
        """The current primary, when ``pid`` is the coordinator; nobody else sends."""
        if pid != self.coordinator:
            return ()
        replicas = self.replicas
        if not self.sticky:
            return (replicas[tick_index % len(replicas)],)
        # Eras 0..e-1 span epoch * (2**e - 1) requests, so the request lies
        # in era e exactly when 2**e <= tick_index // epoch + 1 < 2**(e + 1).
        era = (tick_index // self.epoch + 1).bit_length() - 1
        return (replicas[era % len(replicas)],)

    def describe(self) -> str:
        """Readable one-liner naming the balance discipline and the roles."""
        mode = "sticky-doubling" if self.sticky else "round-robin"
        return (
            f"failover({mode}, coordinator={self.coordinator}, "
            f"replicas={sorted(self.replicas)}, epoch={self.epoch})"
        )


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TickSpec:
    """One process's local clock.

    ``interval`` is the base inter-tick gap; ``jitter`` widens it uniformly to
    ``interval * [1 - jitter, 1 + jitter]``; ``arrival_alpha`` (when positive)
    multiplies it by a Pareto sample with that shape — heavy-tailed
    inter-arrival times; ``period``/``amplitude`` stretch it diurnally with
    the same triangle wave the latency models use.
    """

    interval: int
    jitter: float = 0.0
    arrival_alpha: float = 0.0
    period: int = 0
    amplitude: float = 0.0

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigurationError(f"tick interval must be >= 1, got {self.interval}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(f"tick jitter must lie in [0, 1), got {self.jitter}")
        if self.arrival_alpha < 0:
            raise ConfigurationError(
                f"arrival_alpha must be >= 0, got {self.arrival_alpha}"
            )
        if self.period < 0 or self.amplitude < 0:
            raise ConfigurationError(
                "tick modulation needs period >= 0 and amplitude >= 0, got "
                f"period={self.period}, amplitude={self.amplitude}"
            )

    def next_gap(self, rng: random.Random, now: int) -> int:
        """Sample the gap to this process's next tick at time ``now``."""
        gap = float(self.interval)
        if self.jitter > 0:
            gap *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        if self.arrival_alpha > 0:
            gap *= rng.paretovariate(self.arrival_alpha)
        if self.period > 0 and self.amplitude > 0:
            phase = (now % self.period) / self.period
            triangle = 1.0 - abs(2.0 * phase - 1.0)
            gap *= 1.0 + self.amplitude * triangle
        return max(1, int(round(gap)))

    def fixed_gap(self) -> int:
        """The gap :meth:`next_gap` always returns, or 0 when it samples one.

        With no jitter, no Pareto multiplier and no diurnal modulation the
        gap is the constant ``interval`` and draws nothing from the stream.
        """
        if self.jitter > 0 or self.arrival_alpha > 0 or (self.period > 0 and self.amplitude > 0):
            return 0
        return max(1, int(round(float(self.interval))))


@dataclass(frozen=True)
class Recurrence:
    """An active-time pattern: one interval, or one repeating every ``period``.

    With ``period == 0`` the pattern is the single interval
    ``[start, start + duration)``; with ``period > 0`` it is active whenever
    ``(t - start) % period < duration`` for ``t >= start``, which lets
    unbounded timelines carry faults forever (rolling restarts, rack outages
    on a maintenance cadence, nightly partitions).
    """

    start: int
    duration: int
    period: int = 0

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration < 0:
            raise ConfigurationError(
                f"recurrence needs start >= 0 and duration >= 0, "
                f"got start={self.start}, duration={self.duration}"
            )
        if self.period < 0:
            raise ConfigurationError(f"recurrence period must be >= 0, got {self.period}")
        if self.period and self.duration >= self.period:
            raise ConfigurationError(
                f"recurring window must leave a gap: duration={self.duration} "
                f"must be < period={self.period}"
            )

    def covers(self, time: int) -> bool:
        """Whether the pattern is active at simulated ``time``."""
        if time < self.start:
            return False
        if self.period:
            return (time - self.start) % self.period < self.duration
        return time < self.start + self.duration


@dataclass(frozen=True)
class Outage(Recurrence):
    """A (possibly recurring) recoverable down window for one process."""

    pid: ProcessId = 0


@dataclass(frozen=True)
class PartitionWindow(Recurrence):
    """A network partition: messages crossing group boundaries are dropped.

    A process absent from every group is treated as isolated (its own
    singleton side), so it cannot exchange messages while the partition is
    active.
    """

    groups: Tuple[frozenset, ...] = ()

    def blocks(self, src: ProcessId, dst: ProcessId, time: int) -> bool:
        """Whether a ``src → dst`` message sent at ``time`` is cut."""
        if not self.covers(time):
            return False
        src_side = dst_side = None
        for index, group in enumerate(self.groups):
            if src in group:
                src_side = index
            if dst in group:
                dst_side = index
        if src_side is None:
            src_side = -1 - src
        if dst_side is None:
            dst_side = -1 - dst
        return src_side != dst_side


@dataclass(frozen=True)
class LossWindow(Recurrence):
    """A lossy-network window: while active, messages drop with ``rate``."""

    rate: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"loss rate must lie in [0, 1], got {self.rate}")


@dataclass(frozen=True)
class DistConfig:
    """A complete, replayable description of one distributed timeline.

    ``ticks`` maps process ids to their local clocks (a process absent from
    the mapping never ticks — it activates only on deliveries); ``policy``
    decides the messages sent per tick; ``latency`` delays each message;
    ``outages``/``partitions``/``loss``/``crash_times`` inject faults.
    """

    n: int
    seed: int = 0
    ticks: Mapping[ProcessId, TickSpec] = field(default_factory=dict)
    policy: MessagePolicy = field(default_factory=SilentPolicy)
    latency: Optional[LatencyModel] = None
    outages: Tuple[Outage, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()
    loss: Tuple[LossWindow, ...] = ()
    crash_times: Mapping[ProcessId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"dist config needs n >= 1, got {self.n}")
        for pid in list(self.ticks) + list(self.crash_times):
            if not 1 <= int(pid) <= self.n:
                raise ConfigurationError(f"dist config mentions unknown process {pid}")
        for pid, time in self.crash_times.items():
            if int(time) < 0:
                raise ConfigurationError(
                    f"crash time for process {pid} must be >= 0, got {time}"
                )
        for outage in self.outages:
            if not 1 <= outage.pid <= self.n:
                raise ConfigurationError(f"outage mentions unknown process {outage.pid}")

    def seed_free(self) -> bool:
        """Whether the timeline is the same for every ``seed``.

        True when :class:`TimelineEngine` draws from no RNG stream: every
        tick gap is fixed (:meth:`TickSpec.fixed_gap`), messages take the
        default unit delay or a fixed one (:meth:`LatencyModel.fixed_delay`),
        and no loss window has a positive rate.  The engine binds exactly
        these constants, so ``seed`` then reaches only :meth:`describe`.
        The rule is conservative: a diurnal tick without jitter draws
        nothing yet counts as sampled.
        """
        return (
            all(spec.fixed_gap() for spec in self.ticks.values())
            and (self.latency is None or self.latency.fixed_delay() > 0)
            and not any(window.rate > 0 for window in self.loss)
        )

    def describe(self) -> str:
        """Readable one-line provenance for compiled schedules and reports."""
        parts = [f"n={self.n}", f"seed={self.seed}", self.policy.describe()]
        if self.latency is not None:
            parts.append(self.latency.describe())
        if self.outages:
            parts.append(f"outages={len(self.outages)}")
        if self.partitions:
            parts.append(f"partitions={len(self.partitions)}")
        if self.loss:
            parts.append(f"loss-windows={len(self.loss)}")
        if self.crash_times:
            crashes = ", ".join(
                f"{pid}@{time}" for pid, time in sorted(self.crash_times.items())
            )
            parts.append(f"crashes: {crashes}")
        return "distsim(" + ", ".join(parts) + ")"


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class StepRecord(NamedTuple):
    """One activation of the timeline — one step of the reduced schedule.

    ``cause`` is ``"tick"`` or ``"deliver"``; for deliveries ``src`` is the
    sender and ``send_time`` the instant the message left it.  The engine
    records activations into flat arrays; records are built from them only
    on request (:attr:`repro.distsim.reduction.Timeline.records`).
    """

    index: int
    time: int
    pid: ProcessId
    cause: str
    src: ProcessId = 0
    send_time: int = -1


class _ChannelStreams(dict):
    """Per-channel RNG streams for one purpose, created on first use."""

    def __init__(self, seed: int, purpose: str) -> None:
        super().__init__()
        self._prefix = f"{seed}|{purpose}|"

    def __missing__(self, channel: Tuple[ProcessId, ProcessId]) -> random.Random:
        src, dst = channel
        rng = self[channel] = random.Random(f"{self._prefix}{src}>{dst}")
        return rng


def _covered(windows: Tuple[Recurrence, ...], now: int) -> bool:
    """Whether any of ``windows`` is active at ``now``."""
    for window in windows:
        if window.covers(now):
            return True
    return False


class TimelineEngine:
    """Drives one :class:`DistConfig` through simulated time.

    The engine is single-use and resumable: each :meth:`advance` call runs
    the one event loop further and appends every activation to four flat
    arrays, index ``i`` holding activation ``i``:

    * ``pids`` (``array('i')``) — the activating process, i.e. the reduced
      schedule's step sequence;
    * ``times`` (``array('q')``) — the simulated instant;
    * ``srcs`` (``array('i')``) — the sender of a delivery, ``0`` for a tick
      (so the cause is ``"deliver"`` exactly when ``src`` is non-zero);
    * ``send_times`` (``array('q')``) — the instant a delivered message left
      its sender, ``-1`` for a tick.

    The message counters (``sent``, ``delivered``, ``dropped_*``, latency
    aggregates) and ``crash_index`` (step index at which each crash fired)
    fill in as the run progresses, and so do the heap, the sequence counter,
    the stall count and the per-process tick counts and crashed flags — all
    of them live on the engine, so a run advanced in chunks of any size ends
    in the same state as one advanced in a single call.

    Pending events live in one heap of ``(time, seq, pid, src, send_time)``
    tuples: a delivery to ``pid`` from ``src``, a tick of ``pid`` (``src``
    0) or a crash of ``-pid``.  ``seq`` counts scheduled events, so two events
    at the same instant pop in the order they were scheduled (FIFO) whatever
    their payloads.  The crash events are scheduled first, so a crash beats
    every other event at its instant — a process's first tick included.
    """

    def __init__(self, config: DistConfig) -> None:
        self.config = config
        self.sent = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_partition = 0
        self.dropped_down = 0
        self.max_latency = 0
        self.total_latency = 0
        self.crash_index: Dict[ProcessId, int] = {}
        self.pids = array("i")
        self.times = array("q")
        self.srcs = array("i")
        self.send_times = array("q")
        n = config.n
        seed = config.seed
        tick_rngs = {pid: random.Random(f"{seed}|tick|{pid}") for pid in config.ticks}
        initial = [
            (int(time), -pid) for pid, time in sorted(config.crash_times.items())
        ]
        initial += [
            (spec.next_gap(tick_rngs[pid], 0), pid)
            for pid, spec in sorted(config.ticks.items())
        ]
        self._heap: List[Tuple[int, int, int, int, int]] = [
            (time, seq, pid, 0, -1) for seq, (time, pid) in enumerate(initial)
        ]
        heapq.heapify(self._heap)
        self._seq = len(self._heap)
        self._stall = 0
        # A tick with a constant gap draws nothing: bind the gap once.
        self._fixed_gaps = [0] * (n + 1)
        self._next_gaps: List[Optional[Callable[[int], int]]] = [None] * (n + 1)
        for pid, spec in config.ticks.items():
            self._fixed_gaps[pid] = spec.fixed_gap()
            self._next_gaps[pid] = partial(spec.next_gap, tick_rngs[pid])
        self._tick_counts = [0] * (n + 1)
        self._crashed = [False] * (n + 1)
        self._outages: List[Tuple[Outage, ...]] = [
            tuple(outage for outage in config.outages if outage.pid == pid)
            for pid in range(n + 1)
        ]
        self._latency_rngs = _ChannelStreams(seed, "lat")
        self._loss_rngs = _ChannelStreams(seed, "loss")

    # ------------------------------------------------------------------
    def advance(self, limit: int) -> int:
        """Run until ``limit`` activations are recorded in all, or the heap drains.

        Returns the number of activations recorded so far, which is below
        ``limit`` exactly when the timeline ended (no process can ever
        activate again).  The loop stops right after the ``limit``-th
        activation: the events that activation scheduled are counted, no
        later event is popped.  Raises
        :class:`~repro.errors.ConfigurationError` when more than
        ``_STALL_BUDGET`` events in a row activate nobody.
        """
        pids = self.pids
        steps = len(pids)
        if steps >= limit:
            return steps
        heap = self._heap
        config = self.config
        record_pid = pids.append
        record_time = self.times.append
        record_src = self.srcs.append
        record_send_time = self.send_times.append
        push = heapq.heappush
        pop = heapq.heappop
        fixed_gaps = self._fixed_gaps
        next_gaps = self._next_gaps
        tick_counts = self._tick_counts
        crashed = self._crashed
        crash_index = self.crash_index
        outages = self._outages
        targets = config.policy.targets
        partitions = config.partitions
        loss = config.loss
        latency = config.latency
        sampler = latency.sampler if latency is not None else None
        diurnal = latency is not None and latency.period > 0 and latency.amplitude > 0
        # No model delays by 1; a constant one draws nothing: bind the delay once.
        fixed_delay = 1 if latency is None else latency.fixed_delay()
        latency_rngs = self._latency_rngs
        loss_rngs = self._loss_rngs
        seq = self._seq
        stall = self._stall
        sent = self.sent
        delivered = self.delivered
        dropped_loss = self.dropped_loss
        dropped_partition = self.dropped_partition
        dropped_down = self.dropped_down
        max_latency = self.max_latency
        total_latency = self.total_latency
        try:
            while heap:
                now, _, pid, src, send_time = pop(heap)
                if src:  # a delivery to pid
                    if crashed[pid] or (outages[pid] and _covered(outages[pid], now)):
                        dropped_down += 1
                        continue
                    delay = now - send_time
                    delivered += 1
                    total_latency += delay
                    if delay > max_latency:
                        max_latency = delay
                elif pid > 0:  # a tick of pid
                    if crashed[pid]:
                        continue  # retired clock: no re-arm, the heap can drain
                    tick_index = tick_counts[pid]
                    tick_counts[pid] = tick_index + 1
                    push(heap, (now + (fixed_gaps[pid] or next_gaps[pid](now)), seq, pid, 0, -1))
                    seq += 1
                    if outages[pid] and _covered(outages[pid], now):
                        stall += 1
                        if stall > _STALL_BUDGET:
                            raise ConfigurationError(
                                "distsim timeline stalled: no process can activate "
                                f"(last {stall} events produced no step) — "
                                f"{config.describe()}"
                            )
                        continue
                    for dst in targets(pid, tick_index):
                        sent += 1
                        if partitions and any(
                            partition.blocks(pid, dst, now) for partition in partitions
                        ):
                            dropped_partition += 1
                            continue
                        if loss and any(
                            window.covers(now)
                            and window.rate > 0
                            and loss_rngs[pid, dst].random() < window.rate
                            for window in loss
                        ):
                            dropped_loss += 1
                            continue
                        if fixed_delay:
                            delay = fixed_delay
                        else:
                            raw = sampler(latency_rngs[pid, dst], now)
                            if diurnal:
                                raw *= latency.diurnal_factor(now)
                            delay = max(1, int(round(raw)))
                        push(heap, (now + delay, seq, dst, pid, now))
                        seq += 1
                else:  # a crash of -pid
                    crashed[-pid] = True
                    crash_index.setdefault(-pid, steps)
                    continue
                stall = 0
                record_pid(pid)
                record_time(now)
                record_src(src)
                record_send_time(send_time)
                steps += 1
                if steps == limit:
                    break
        finally:
            self._seq = seq
            self._stall = stall
            self.sent = sent
            self.delivered = delivered
            self.dropped_loss = dropped_loss
            self.dropped_partition = dropped_partition
            self.dropped_down = dropped_down
            self.max_latency = max_latency
            self.total_latency = total_latency
        return steps


#: Activations per :meth:`TimelineEngine.advance` call when a caller cannot
#: know up front how many it needs (crash calibration, step streams).
ADVANCE_CHUNK = 1024


def calibrated_crash_pattern(config: DistConfig) -> CrashPattern:
    """Translate time-domain crashes into the step-domain :class:`CrashPattern`.

    The paper's crash metadata lives in *step indices* (the global step from
    which a process never appears), while :class:`DistConfig` prescribes
    crashes in simulated *time*.  A calibration run advances the timeline in
    chunks until every crash event has fired and records how many steps had
    been emitted when each one did — exactly the index conventions
    :meth:`~repro.schedules.base.ScheduleGenerator.generate` and
    :meth:`~repro.core.schedule.CompiledSchedule.prefix` expect.

    Calibration needs the timeline only up to the first activation after the
    last crash; a stall the chunked run meets beyond that point belongs to
    the prefixes callers later ask for, so it does not fail calibration.
    """
    if not config.crash_times:
        return CrashPattern.none(config.n)
    engine = TimelineEngine(config)
    pending = len(config.crash_times)
    crash_index = engine.crash_index
    try:
        while len(crash_index) < pending:
            target = len(engine.pids) + ADVANCE_CHUNK
            if engine.advance(target) < target:
                break
    except ConfigurationError:
        if len(crash_index) < pending or max(crash_index.values()) == len(engine.pids):
            raise
    if len(crash_index) < pending:  # pragma: no cover - crash events pop before the drain
        missing = sorted(set(config.crash_times) - set(crash_index))
        raise ConfigurationError(
            f"calibration never observed crash events for processes {missing}"
        )
    return CrashPattern.crashes_at(config.n, dict(crash_index))
