"""Scenario families: named, declaratively-buildable schedule sources.

A *family* is a named builder from JSON-normalized parameters to a
:class:`~repro.schedules.base.ScheduleGenerator`.  The registry contains

* the classic generators (round-robin, random, Figure 1, set-timely,
  eventually-synchronous, carrier-rotation), re-expressed through their
  ``from_params`` constructors — same classes, same RNG streams, pinned by
  tests;
* three genuinely new families built for scenario diversity:

  - ``crash-churn`` (:class:`CrashRecoveryChurnGenerator`) — processes keep
    going silent for an outage window and coming back, so timeliness is
    repeatedly destroyed while everybody remains correct in the paper's sense
    (infinitely many steps);
  - ``alternating-epochs`` (:class:`AlternatingSynchronyGenerator`) —
    synchronous round-robin epochs alternating with seeded-random
    asynchronous epochs, optionally with growing epoch lengths (growing
    epochs void every synchrony bound);
  - ``spliced-adversary`` — a benign prefix spliced onto a
    carrier-rotation adversarial suffix via the
    :func:`~repro.scenarios.combinators.concat` combinator: detectors
    stabilize on the prefix and are then dragged back into churn.

* the five message-passing distsim workloads (``dist-heavy-tail``,
  ``dist-diurnal``, ``dist-correlated-failures``, ``dist-rolling-restart``,
  ``dist-sticky-failover``) — discrete-event timelines reduced to schedules,
  built in :mod:`repro.distsim.workloads` and registered here so the
  campaign, bench and search subsystems consume them unchanged.

Campaigns select a family with the ``schedule`` parameter, so every family —
classic or new — is a sweepable campaign axis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from ..distsim.workloads import DIST_FAMILIES
from ..errors import ConfigurationError
from ..runtime.crash import CrashPattern
from ..schedules.adversary import CarrierRotationAdversary, EventuallySynchronousGenerator
from ..schedules.base import ScheduleGenerator, SynchronyGuarantee
from ..schedules.figure1 import Figure1Generator
from ..schedules.random_schedule import RandomGenerator
from ..schedules.round_robin import RoundRobinGenerator
from ..schedules.segments import Segments, rotation, uniform
from ..schedules.set_timely import SetTimelyGenerator
from ..types import ProcessId
from .combinators import concat

#: A family builder maps JSON-normalized parameters to a generator.
ScenarioBuilder = Callable[[Dict[str, Any]], ScheduleGenerator]


@dataclass(frozen=True)
class ScenarioFamily:
    """One registered scenario family."""

    name: str
    builder: ScenarioBuilder
    description: str


_FAMILIES: Dict[str, ScenarioFamily] = {}


def register_family(name: str, builder: ScenarioBuilder, description: str) -> None:
    """Register (or replace) a scenario family under ``name``."""
    _FAMILIES[name] = ScenarioFamily(name=name, builder=builder, description=description)


def family(name: str) -> ScenarioFamily:
    """Look up a registered family; unknown names fail with the full list."""
    registered = _FAMILIES.get(name)
    if registered is None:
        raise ConfigurationError(
            f"unknown schedule family {name!r}; registered: {available_families()}"
        )
    return registered


def available_families() -> List[str]:
    """Names of all registered scenario families, sorted."""
    return sorted(_FAMILIES)


def family_descriptions() -> Dict[str, str]:
    """Mapping ``family name -> one-line description`` for listings."""
    return {name: fam.description for name, fam in sorted(_FAMILIES.items())}


# ----------------------------------------------------------------------
# New families
# ----------------------------------------------------------------------

class CrashRecoveryChurnGenerator(ScheduleGenerator):
    """Crash-recovery churn: processes keep dropping out and coming back.

    Time is divided into cycles of ``period`` emitted steps.  At each cycle
    boundary a seeded RNG picks up to ``churn`` processes to be *down* for the
    first ``outage`` steps of the cycle — they are simply skipped by the
    round-robin rotation, exactly as a crashed process would be — after which
    they recover and rotate normally again.  A process is never picked in two
    consecutive cycles, so every non-(permanently-)crashed process takes
    infinitely many steps: in the paper's model everybody is correct, yet no
    set containing a churning process keeps a bounded window for long.  An
    additional permanent ``crash_pattern`` is honoured on top.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        period: int = 64,
        outage: int = 16,
        churn: int = 1,
        crash_pattern: Optional[CrashPattern] = None,
    ) -> None:
        super().__init__(n, crash_pattern)
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        if not 0 <= outage <= period:
            raise ConfigurationError(
                f"outage must lie in [0, period={period}], got {outage}"
            )
        if churn < 0:
            raise ConfigurationError(f"churn must be >= 0, got {churn}")
        self.seed = seed
        self.period = period
        self.outage = outage
        self.churn = churn

    @classmethod
    def from_params(cls, params: dict) -> "CrashRecoveryChurnGenerator":
        """Build from JSON-normalized scenario parameters (``n``, ``seed``, cycle shape, crashes)."""
        n = int(params["n"])
        return cls(
            n,
            seed=int(params.get("seed", 0)),
            period=int(params.get("period", 64)),
            outage=int(params.get("outage", 16)),
            churn=int(params.get("churn", 1)),
            crash_pattern=CrashPattern.from_params(n, params),
        )

    @property
    def description(self) -> str:
        """Provenance line: cycle shape, seed and crash pattern."""
        return (
            f"crash-recovery churn (period={self.period}, outage={self.outage}, "
            f"churn={self.churn}, seed={self.seed}, {self.crash_pattern.describe()})"
        )

    def _emit(self) -> Iterator[ProcessId]:
        rng = random.Random(self.seed)
        is_crashed = self.crash_pattern.is_crashed
        order = list(range(1, self.n + 1))
        previous_down: frozenset = frozenset()
        step_index = 0
        cursor = 0
        while True:
            alive = [pid for pid in order if not is_crashed(pid, step_index)]
            if not alive:
                raise ConfigurationError(
                    "crash-churn scenario has no alive process left to schedule"
                )
            candidates = [pid for pid in alive if pid not in previous_down]
            count = min(self.churn, max(len(alive) - 1, 0), len(candidates))
            down = frozenset(rng.sample(candidates, count)) if count > 0 else frozenset()
            emitted = 0
            skipped = 0
            while emitted < self.period:
                pid = order[cursor % self.n]
                cursor += 1
                if is_crashed(pid, step_index) or (pid in down and emitted < self.outage):
                    skipped += 1
                    if skipped > 4 * self.n:
                        raise ConfigurationError(
                            "crash-churn scenario has no schedulable process left "
                            "(every non-churning process has crashed)"
                        )
                    continue
                skipped = 0
                yield pid
                step_index += 1
                emitted += 1
            previous_down = down


class AlternatingSynchronyGenerator(ScheduleGenerator):
    """Alternating-synchrony epochs: round-robin, then chaos, forever.

    Epoch ``m`` consists of ``sync_epoch + m * epoch_growth`` synchronous
    (round-robin over alive processes) steps followed by
    ``async_epoch + m * epoch_growth`` asynchronous (seeded uniformly random
    among alive) steps.  With ``epoch_growth == 0`` the asynchronous stretches
    stay bounded, so the correct set remains timely with a window covering
    one full asynchronous epoch plus one rotation; with growth, every bound
    is eventually violated and no guarantee is reported.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        sync_epoch: int = 48,
        async_epoch: int = 48,
        epoch_growth: int = 0,
        crash_pattern: Optional[CrashPattern] = None,
    ) -> None:
        super().__init__(n, crash_pattern)
        if sync_epoch < 1 or async_epoch < 1:
            raise ConfigurationError(
                f"epoch lengths must be >= 1, got sync={sync_epoch}, async={async_epoch}"
            )
        if epoch_growth < 0:
            raise ConfigurationError(f"epoch_growth must be >= 0, got {epoch_growth}")
        self.seed = seed
        self.sync_epoch = sync_epoch
        self.async_epoch = async_epoch
        self.epoch_growth = epoch_growth

    @classmethod
    def from_params(cls, params: dict) -> "AlternatingSynchronyGenerator":
        """Build from JSON-normalized scenario parameters (``n``, ``seed``, epochs, crashes)."""
        n = int(params["n"])
        return cls(
            n,
            seed=int(params.get("seed", 0)),
            sync_epoch=int(params.get("sync_epoch", 48)),
            async_epoch=int(params.get("async_epoch", 48)),
            epoch_growth=int(params.get("epoch_growth", 0)),
            crash_pattern=CrashPattern.from_params(n, params),
        )

    @property
    def description(self) -> str:
        """Provenance line: epoch lengths, growth, seed and crash pattern."""
        return (
            f"alternating synchrony (sync={self.sync_epoch}, async={self.async_epoch}, "
            f"growth={self.epoch_growth}, seed={self.seed}, {self.crash_pattern.describe()})"
        )

    def guarantee(self) -> Optional[SynchronyGuarantee]:
        """With bounded epochs and no late crashes, the correct set is timely.

        The worst window for the correct set spans one full asynchronous
        epoch plus one round-robin rotation, hence the bound below.  The
        certificate requires a *static* crash pattern (every crash at step 0):
        then only correct processes ever step, so every step is a ``P``-step
        and the bound holds.  Faulty processes that take pre-crash steps
        stretch ``P``-free windows across epoch boundaries past any fixed
        bound, and growing epochs (``epoch_growth > 0``) void every bound —
        both cases report no guarantee rather than an unsound one.
        """
        if self.epoch_growth > 0 or not self.crash_pattern.is_static:
            return None
        correct = frozenset(range(1, self.n + 1)) - self.faulty
        if not correct:
            return None
        return SynchronyGuarantee(
            p_set=correct,
            q_set=frozenset(range(1, self.n + 1)),
            bound=self.async_epoch + self.n,
        )

    def _emit(self) -> Iterator[ProcessId]:
        return chain.from_iterable(self._segments())

    def _segments(self) -> Segments:
        rng = random.Random(self.seed)
        everyone = range(1, self.n + 1)
        empty = "alternating-epochs scenario has no alive process left"
        step = 0
        epoch = 0
        while True:
            growth = epoch * self.epoch_growth
            step = yield from rotation(
                self.crash_pattern, everyone, step, self.sync_epoch + growth, empty
            )
            step = yield from uniform(
                self.crash_pattern, everyone, rng, step, self.async_epoch + growth, empty
            )
            epoch += 1


def spliced_adversary(params: Dict[str, Any]) -> ScheduleGenerator:
    """A benign prefix spliced onto a carrier-rotation adversarial suffix.

    Parameters: ``n``; ``switch_at`` (prefix length, default 2000);
    ``carriers`` (default: all but the highest process id); ``prefix``
    (``"round-robin"`` or ``"random"``, default round-robin); plus the usual
    ``seed``/phase/crash parameters forwarded to both sides.  Crash steps
    keep their *global* meaning, exactly as in every other family: the
    suffix's pattern is rebased to splice-local indices here, so that the
    :func:`~repro.scenarios.combinators.concat` combinator's global rebasing
    round-trips a prescribed ``crash_steps`` entry unchanged.
    """
    n = int(params["n"])
    switch_at = int(params.get("switch_at", 2000))
    carriers = params.get("carriers")
    carrier_set = (
        frozenset(int(c) for c in carriers)
        if carriers
        else frozenset(range(1, n)) or frozenset({1})
    )
    prefix_family = params.get("prefix", "round-robin")
    if prefix_family == "round-robin":
        head: ScheduleGenerator = RoundRobinGenerator.from_params(params)
    elif prefix_family == "random":
        head = RandomGenerator.from_params(params)
    else:
        raise ConfigurationError(
            f"unknown spliced-adversary prefix {prefix_family!r}; "
            "expected 'round-robin' or 'random'"
        )
    tail_params = dict(params)
    tail_params["carriers"] = sorted(carrier_set)
    if params.get("crash_steps"):
        tail_params["crash_steps"] = {
            str(pid): max(0, int(step) - switch_at)
            for pid, step in dict(params["crash_steps"]).items()
        }
    tail = CarrierRotationAdversary.from_params(tail_params)
    return concat(head, tail, switch_at)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

register_family(
    "round-robin",
    RoundRobinGenerator.from_params,
    "fully synchronous rotation over the alive processes",
)
register_family(
    "random",
    RandomGenerator.from_params,
    "seeded uniform/weighted asynchronous scheduling",
)
register_family(
    "figure1",
    Figure1Generator.from_params,
    "the paper's Figure 1 schedule: the set {p1,p2} timely, neither member timely",
)
register_family(
    "set-timely",
    SetTimelyGenerator.from_params,
    "certified S^i_{j,n} member: P timely with a chosen bound, no member timely",
)
register_family(
    "eventually-synchronous",
    EventuallySynchronousGenerator.from_params,
    "chaotic prefix, round-robin forever after (classical partial synchrony)",
)
register_family(
    "carrier-rotation",
    CarrierRotationAdversary.from_params,
    "E4 adversary: only the full carrier set is timely, every subset is starved",
)
register_family(
    "crash-churn",
    CrashRecoveryChurnGenerator.from_params,
    "crash-recovery churn: processes keep dropping out for a window and returning",
)
register_family(
    "alternating-epochs",
    AlternatingSynchronyGenerator.from_params,
    "synchronous epochs alternating with (optionally growing) chaotic epochs",
)
register_family(
    "spliced-adversary",
    spliced_adversary,
    "benign prefix spliced onto a carrier-rotation adversarial suffix",
)
for _dist_name, (_dist_builder, _dist_description) in sorted(DIST_FAMILIES.items()):
    register_family(_dist_name, _dist_builder, _dist_description)
