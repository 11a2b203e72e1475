"""Pluggable properties: what the schedule search tries to falsify.

A :class:`ScheduleProperty` wraps one of the library's existing checkers —
the k-anti-Ω detector property (:func:`repro.failure_detectors.properties.check_k_anti_omega`),
Lemma 22's winner-set convergence, or the uniform k-agreement safety clauses
(:func:`repro.agreement.problem.check_agreement`) — behind two evaluation
modes with very different costs:

``screen(compiled, checkpoints)``
    The cheap falsification probe the engine runs on *every* candidate.  It
    builds one instrumentation-free replica, drives it over the candidate's
    buffer in checkpoint segments on the bare kernel loop (no observers, no
    trace), and judges the property from the published-output snapshots taken
    between segments.  The verdict is exact at checkpoint resolution: good
    enough to rank candidates and to flag potential violations.

``confirm(compiled)``
    The exact verdict, run only on flagged candidates and inside the
    shrinker: attach the real output trackers, replay the candidate under the
    fast policy, and apply the library's own property checker.  A candidate
    only ever counts as a *violation* on the word of ``confirm``.

Screen judging is split from screen execution: every property judges from
checkpoint snapshots via ``judge_screen``, so a *whole generation* of
candidates — each with its own schedule — can gather its snapshots in one
vector call (:func:`screen_generation`, via ``batch_screen_snapshots``) and
still produce verdicts identical to the one-at-a-time ``screen`` path.  There
are two screen lanes: the anti-Ω properties route generations of at least
the column-screen crossover through a sim-free column kernel
(:func:`repro.runtime.vector_backend.anti_omega_screen_snapshots`) and
smaller ones, by plan, through the per-candidate reference ``screen``; every
other property has no column lane and falls back, loudly, to the reference
``screen``.

Both modes read the ground-truth correct set from the candidate's compiled
crash metadata, exactly like every other harness in the library.  Fitness is
a number in ``[0, 1]`` where higher means closer to falsifying the property —
the engine maximizes it, so near-misses surface even when no candidate
violates anything (the expected outcome inside the model).
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..agreement.kset import DECISION
from ..agreement.problem import check_agreement, distinct_inputs
from ..agreement.runner import build_agreement_algorithm
from ..core.schedule import CompiledSchedule
from ..errors import ConfigurationError, SimulationError
from ..failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    make_anti_omega_algorithm,
)
from ..failure_detectors.base import FD_OUTPUT, WINNER_SET, make_detector_trackers
from ..failure_detectors.properties import check_k_anti_omega, check_leader_set_convergence
from ..memory.registers import RegisterFile
from ..runtime.kernel import execute_batch
from ..runtime.simulator import Simulator
from ..types import AgreementInstance, ProcessId, ProcessSet, universe

#: One ``pid -> {key: value}`` published-output sample (a checkpoint snapshot).
Snapshot = Dict[ProcessId, Dict[str, Any]]


@dataclass(frozen=True)
class PropertyVerdict:
    """One property evaluation of one candidate schedule.

    ``violated`` means the property failed on this candidate *as judged by
    the mode that produced the verdict* (checkpoint-resolution for ``screen``,
    exact for ``confirm``); whether that counts as a paper-level
    counterexample is decided later by certification.  ``fitness`` is the
    property's own violation-proximity score in ``[0, 1]``; ``details`` is a
    JSON-safe dict of whatever the property wants reported.
    """

    property_name: str
    violated: bool
    fitness: float
    mode: str
    details: Dict[str, Any] = field(default_factory=dict)


class ScheduleProperty(ABC):
    """Base class: a falsifiable claim about runs over candidate schedules."""

    #: Registry name (also the CLI spelling).
    name: str = ""

    def __init__(self, n: int, t: int, k: int) -> None:
        if not 1 <= k <= n or not 0 <= t < n:
            raise ConfigurationError(
                f"property needs 1 <= k <= n and 0 <= t < n, got n={n}, t={t}, k={k}"
            )
        self.n = n
        self.t = t
        self.k = k

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line statement of the claim under attack."""
        return f"{self.name} over Π{self.n} (t={self.t}, k={self.k})"

    def certification_sizes(self) -> Tuple[int, int]:
        """The ``(i, j)`` of the ``S^i_{j,n}`` family this property lives in."""
        return self.k, self.t + 1

    def correct_set(self, compiled: CompiledSchedule) -> ProcessSet:
        """Ground-truth correct processes of a candidate (from crash metadata)."""
        return universe(self.n) - compiled.faulty

    # ------------------------------------------------------------------
    #: Published keys the screen snapshots sample (one column per key).
    screen_keys: Tuple[str, ...] = ()

    @abstractmethod
    def _build_simulator(self) -> Simulator:
        """A fresh instrumentation-free replica of the system under test."""

    def screen(self, compiled: CompiledSchedule, checkpoints: int) -> PropertyVerdict:
        """Cheap bare-kernel verdict at checkpoint resolution."""
        simulator = self._build_simulator()
        snapshots = checkpoint_snapshots(
            simulator, compiled, checkpoints, self.screen_keys
        )
        return self.judge_screen(snapshots, compiled)

    @abstractmethod
    def judge_screen(
        self, snapshots: List[Snapshot], compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """The screen verdict from checkpoint snapshots (shared by all lanes).

        Every screen path — the per-candidate :meth:`screen`, and the batched
        :func:`screen_generation` — funnels through this judge, which is what
        pins the lanes verdict-identical: same snapshots in, same
        :class:`PropertyVerdict` out.
        """

    def batch_screen_snapshots(
        self, compileds: Sequence[CompiledSchedule], checkpoints: int
    ) -> List[List[Snapshot]]:
        """Checkpoint snapshots for a whole generation, via a column lane.

        The base property has no column lane: it raises
        :class:`~repro.runtime.vector_backend.UnsupportedLowering` before
        building anything, so :func:`screen_generation` falls back to the
        per-candidate reference :meth:`screen`.  Subclasses with a cheaper
        whole-generation lane override it (the anti-Ω properties screen
        sim-free).
        """
        from ..runtime.vector_backend import UnsupportedLowering

        raise UnsupportedLowering(f"{type(self).__name__} has no column screen lane")

    @abstractmethod
    def confirm(self, compiled: CompiledSchedule) -> PropertyVerdict:
        """Exact tracker-based verdict (the word that counts)."""


# ----------------------------------------------------------------------
# Checkpointed bare execution (shared by the screen paths)
# ----------------------------------------------------------------------

def checkpoint_snapshots(
    simulator: Simulator,
    compiled: CompiledSchedule,
    checkpoints: int,
    keys: Sequence[str],
) -> List[Snapshot]:
    """Drive one replica over the buffer in segments, sampling outputs between.

    The buffer is split into ``checkpoints`` contiguous segments; each
    non-empty segment runs directly on the bare kernel loop (the replica
    carries no observers) without re-entering the batch machinery per
    segment, and after each segment the published outputs under ``keys`` are
    snapshotted for every process.  Zero-length segments — ``checkpoints``
    exceeding the schedule length — execute nothing and simply repeat the
    previous snapshot.  Returns one ``pid -> {key: value}`` snapshot per
    checkpoint; the final snapshot reflects the full buffer.
    """
    from ..runtime.kernel import _execute_bare

    if checkpoints < 1:
        raise ConfigurationError(f"checkpoints must be >= 1, got {checkpoints}")
    bare = not simulator.observer_entries()
    total = len(compiled)
    steps = compiled.steps
    bounds = [(total * index) // checkpoints for index in range(checkpoints + 1)]
    snapshots: List[Snapshot] = []
    for start, end in zip(bounds, bounds[1:]):
        if end > start:
            if bare:
                _execute_bare(simulator, steps[start:end])
            else:
                segment = CompiledSchedule(
                    n=compiled.n, steps=steps[start:end], description="segment"
                )
                execute_batch([simulator], segment)
        snapshots.append(
            {
                pid: {key: simulator.output_of(pid, key) for key in keys}
                for pid in range(1, compiled.n + 1)
            }
        )
    return snapshots


def _stable_from(
    snapshots: List[Dict[ProcessId, Dict[str, Any]]],
    stable_at: Callable[[Dict[ProcessId, Dict[str, Any]]], bool],
) -> Optional[int]:
    """Earliest checkpoint index from which ``stable_at`` holds to the end."""
    stable: Optional[int] = None
    for index, snapshot in enumerate(snapshots):
        if stable_at(snapshot):
            if stable is None:
                stable = index
        else:
            stable = None
    return stable


def _last_change_checkpoint(
    snapshots: List[Dict[ProcessId, Dict[str, Any]]],
    pids: Sequence[ProcessId],
    key: str,
) -> int:
    """Last checkpoint at which any of ``pids`` changed its ``key`` output.

    0 when nothing ever changed after the first snapshot — the
    checkpoint-resolution spelling of "stabilized immediately".
    """
    last = 0
    for index in range(1, len(snapshots)):
        for pid in pids:
            if snapshots[index][pid][key] != snapshots[index - 1][pid][key]:
                last = index
                break
    return last


def _delay_fitness(last_change: int, checkpoints: int) -> float:
    """Normalize a last-change checkpoint into the stabilization-delay score."""
    if checkpoints <= 1:
        return 0.0
    return round(last_change / (checkpoints - 1), 6)


# ----------------------------------------------------------------------
# k-anti-Ω convergence (Theorem 23 / Section 4.1)
# ----------------------------------------------------------------------

class KAntiOmegaConvergenceProperty(ScheduleProperty):
    """The t-resilient k-anti-Ω specification on the Figure 2 detector.

    Claim under attack: on every schedule of ``S^k_{t+1,n}`` with at most
    ``t`` crashes, some correct process is eventually never suspected by any
    correct process.  Fitness is the stabilization-delay fraction — 1.0 means
    the detector was still churning at the end of the horizon.
    """

    name = "k-anti-omega-convergence"
    screen_keys = (FD_OUTPUT,)

    def _build_simulator(self) -> Simulator:
        registers = RegisterFile()
        KAntiOmegaAutomaton.declare_registers(registers, n=self.n, k=self.k)
        automata = make_anti_omega_algorithm(n=self.n, t=self.t, k=self.k)
        return Simulator(n=self.n, automata=automata, registers=registers)

    def batch_screen_snapshots(
        self, compileds: Sequence[CompiledSchedule], checkpoints: int
    ) -> List[List[Snapshot]]:
        """Whole-generation snapshots from the sim-free anti-Ω column kernel.

        No simulators are built at all: the candidates' Figure 2 runs execute
        as flat numpy lanes
        (:func:`~repro.runtime.vector_backend.anti_omega_screen_snapshots`),
        which skips the per-candidate construction cost that dominates short
        screens on the reference path.
        """
        from ..runtime.vector_backend import anti_omega_screen_snapshots

        return anti_omega_screen_snapshots(
            self.n, self.t, self.k, compileds, checkpoints, self.screen_keys
        )

    # ------------------------------------------------------------------
    def judge_screen(
        self, snapshots: List[Snapshot], compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """Judge suspicion stability across checkpoint snapshots."""
        correct = sorted(self.correct_set(compiled))
        final = snapshots[-1]
        all_produced = all(final[pid][FD_OUTPUT] is not None for pid in correct)

        def unsuspected(candidate: ProcessId) -> Callable[[Dict[int, Dict[str, Any]]], bool]:
            def check(snapshot: Dict[int, Dict[str, Any]]) -> bool:
                for pid in correct:
                    output = snapshot[pid][FD_OUTPUT]
                    if output is not None and candidate in output:
                        return False
                return True

            return check

        stable: Optional[int] = None
        witness: Optional[ProcessId] = None
        if all_produced:
            for candidate in correct:
                candidate_stable = _stable_from(snapshots, unsuspected(candidate))
                if candidate_stable is not None and (stable is None or candidate_stable < stable):
                    stable = candidate_stable
                    witness = candidate
        # A violation at checkpoint resolution: everyone is outputting, yet no
        # correct process is unsuspected over any final stretch of snapshots.
        # An empty correct set makes ``all_produced`` vacuously true while no
        # candidate can ever stabilize — the property is about correct
        # processes, so such a prefix is unjudgeable, not violated.
        violated = bool(correct) and all_produced and stable is None
        last_change = _last_change_checkpoint(snapshots, correct, FD_OUTPUT)
        fitness = 1.0 if violated else _delay_fitness(last_change, len(snapshots))
        return PropertyVerdict(
            property_name=self.name,
            violated=violated,
            fitness=fitness,
            mode="screen",
            details={
                "witness": witness,
                "stable_from_checkpoint": stable,
                "last_change_checkpoint": last_change,
                "checkpoints": len(snapshots),
                "all_correct_produced": all_produced,
                "correct": correct,
            },
        )

    def confirm(self, compiled: CompiledSchedule) -> PropertyVerdict:
        """Exact verdict via output trackers and :func:`check_k_anti_omega`."""
        simulator = self._build_simulator()
        fd_tracker, winner_tracker = make_detector_trackers()
        simulator.add_observer(fd_tracker)
        simulator.add_observer(winner_tracker)
        simulator.run_fast(compiled)
        horizon = len(compiled)
        correct = self.correct_set(compiled)
        finals = fd_tracker.final_values()
        all_produced = all(finals.get(pid) is not None for pid in correct)
        if not correct:
            # Every process crashed: the property quantifies over correct
            # processes, and the exact checker rejects an empty correct set
            # outright — unjudgeable, not a counterexample.
            return PropertyVerdict(
                property_name=self.name,
                violated=False,
                fitness=0.0,
                mode="confirm",
                details={
                    "witness": None,
                    "stabilization_step": None,
                    "horizon": horizon,
                    "all_correct_produced": all_produced,
                    "converged_winner_set": None,
                },
            )
        verdict = check_k_anti_omega(
            fd_tracker=fd_tracker,
            winner_tracker=winner_tracker,
            correct=correct,
            n=self.n,
            k=self.k,
            horizon=horizon,
        )
        # A prefix too short for every correct process to even produce an
        # output is unjudgeable, not a counterexample: the shrinker's
        # predicates key off ``all_correct_produced`` to refuse collapsing a
        # real finding into a trivial startup fragment.  Same for an empty
        # correct set (every process crashed), where ``all_produced`` is
        # vacuously true yet nothing remains for the property to constrain.
        violated = bool(correct) and not verdict.satisfied and all_produced
        fitness = (
            1.0 if violated else (verdict.stabilization_step or 0) / max(horizon, 1)
        )
        return PropertyVerdict(
            property_name=self.name,
            violated=violated,
            fitness=round(fitness, 6),
            mode="confirm",
            details={
                "witness": verdict.witness,
                "stabilization_step": verdict.stabilization_step,
                "horizon": horizon,
                "all_correct_produced": all_produced,
                "converged_winner_set": list(verdict.converged_winner_set)
                if verdict.converged_winner_set is not None
                else None,
            },
        )


# ----------------------------------------------------------------------
# Winner-set convergence (Lemmas 20 and 22)
# ----------------------------------------------------------------------

class LeaderSetConvergenceProperty(KAntiOmegaConvergenceProperty):
    """Lemma 22's stronger claim: one common eventual winner set, containing
    a correct process (Lemma 20).

    Strictly harder to satisfy than plain k-anti-Ω convergence, so its
    near-miss frontier is the richer one: schedules where every process
    stabilizes individually but the winner sets never agree, or agree on a
    set of crashed processes.
    """

    name = "leader-set-convergence"
    screen_keys = (WINNER_SET,)

    def judge_screen(
        self, snapshots: List[Snapshot], compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """Judge winner-set agreement across checkpoint snapshots."""
        correct = sorted(self.correct_set(compiled))
        correct_frozen = frozenset(correct)
        final = snapshots[-1]
        all_produced = all(final[pid][WINNER_SET] is not None for pid in correct)

        def converged(snapshot: Dict[int, Dict[str, Any]]) -> bool:
            values = {snapshot[pid][WINNER_SET] for pid in correct}
            if len(values) != 1 or None in values:
                return False
            winner = values.pop()
            return bool(set(winner) & correct_frozen)

        stable = _stable_from(snapshots, converged)
        final_values = {final[pid][WINNER_SET] for pid in correct}
        # ``converged`` can never hold over an empty correct set, and
        # ``all_produced`` is vacuously true there — unjudgeable, not violated.
        violated = bool(correct) and all_produced and stable is None
        last_change = _last_change_checkpoint(snapshots, correct, WINNER_SET)
        fitness = 1.0 if violated else _delay_fitness(last_change, len(snapshots))
        return PropertyVerdict(
            property_name=self.name,
            violated=violated,
            fitness=fitness,
            mode="screen",
            details={
                "stable_from_checkpoint": stable,
                "last_change_checkpoint": last_change,
                "checkpoints": len(snapshots),
                "all_correct_produced": all_produced,
                "distinct_final_winner_sets": len(final_values),
                "correct": correct,
            },
        )

    def confirm(self, compiled: CompiledSchedule) -> PropertyVerdict:
        """Exact verdict via :func:`check_leader_set_convergence` (Lemmas 20/22)."""
        simulator = self._build_simulator()
        fd_tracker, winner_tracker = make_detector_trackers()
        simulator.add_observer(fd_tracker)
        simulator.add_observer(winner_tracker)
        simulator.run_fast(compiled)
        horizon = len(compiled)
        correct = self.correct_set(compiled)
        finals = winner_tracker.final_values()
        all_produced = all(finals.get(pid) is not None for pid in correct)
        verdict = check_leader_set_convergence(winner_tracker, correct=correct)
        satisfied = verdict.converged and verdict.contains_correct
        violated = bool(correct) and not satisfied and all_produced
        fitness = (
            1.0 if violated else (verdict.stabilization_step or 0) / max(horizon, 1)
        )
        return PropertyVerdict(
            property_name=self.name,
            violated=violated,
            fitness=round(fitness, 6),
            mode="confirm",
            details={
                "converged": verdict.converged,
                "winner_set": list(verdict.winner_set) if verdict.winner_set else None,
                "contains_correct": verdict.contains_correct,
                "stabilization_step": verdict.stabilization_step,
                "horizon": horizon,
                "all_correct_produced": all_produced,
            },
        )


# ----------------------------------------------------------------------
# Uniform k-agreement safety (Theorem 24's algorithm, safety clauses)
# ----------------------------------------------------------------------

class AgreementSafetyProperty(ScheduleProperty):
    """Validity + k-agreement of the (t,k,n) protocol stack, on any schedule.

    Safety must hold *unconditionally* — even on schedules far outside
    ``S^k_{t+1,n}`` — so for this property every confirmed violation is a
    genuine bug regardless of certification.  Fitness rewards runs that force
    the protocol to use many distinct decision values and leave correct
    processes undecided (the liveness near-miss frontier: safety intact,
    termination starved).
    """

    name = "agreement-safety"
    screen_keys = (DECISION,)

    def __init__(self, n: int, t: int, k: int) -> None:
        super().__init__(n, t, k)
        self.problem = AgreementInstance(t=t, k=k, n=n)
        self.inputs = distinct_inputs(n)

    def _build_simulator(self) -> Simulator:
        registers, automata, _ = build_agreement_algorithm(self.problem, self.inputs)
        return Simulator(n=self.n, automata=automata, registers=registers)

    def _judge(
        self, decisions: Dict[ProcessId, Any], compiled: CompiledSchedule, mode: str,
        extra: Optional[Dict[str, Any]] = None,
    ) -> PropertyVerdict:
        correct = self.correct_set(compiled)
        verdict = check_agreement(
            problem=self.problem, inputs=self.inputs, decisions=decisions, correct=correct
        )
        undecided = len(verdict.undecided_correct) / max(len(correct), 1)
        distinct = len(verdict.distinct_decisions)
        violated = not verdict.safe
        # Two near-violation directions: many distinct decision values (one
        # more than k would break agreement) and starved termination (the
        # liveness the model's premises buy; undecided == 1.0 means the run
        # kept every correct process from deciding at all).
        fitness = 1.0 if violated else min(
            1.0, max(distinct / (self.k + 1), undecided)
        )
        details = {
            "valid": verdict.valid,
            "agreement": verdict.agreement,
            "distinct_decisions": distinct,
            "undecided_correct": sorted(verdict.undecided_correct),
            "correct": sorted(correct),
        }
        details.update(extra or {})
        return PropertyVerdict(
            property_name=self.name,
            violated=violated,
            fitness=round(fitness, 6),
            mode=mode,
            details=details,
        )

    # ------------------------------------------------------------------
    def judge_screen(
        self, snapshots: List[Snapshot], compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """Judge decisions sampled at checkpoints, from the final snapshot."""
        final = snapshots[-1]
        decisions = {pid: final[pid][DECISION] for pid in range(1, self.n + 1)}
        first_decided = next(
            (
                index
                for index, snapshot in enumerate(snapshots)
                if any(snapshot[pid][DECISION] is not None for pid in snapshot)
            ),
            None,
        )
        return self._judge(
            decisions, compiled, "screen", extra={"first_decision_checkpoint": first_decided}
        )

    def confirm(self, compiled: CompiledSchedule) -> PropertyVerdict:
        """Exact verdict: full replay, then :func:`check_agreement` on the decisions."""
        simulator = self._build_simulator()
        simulator.run_fast(compiled)
        decisions = {
            pid: simulator.output_of(pid, DECISION) for pid in range(1, self.n + 1)
        }
        return self._judge(decisions, compiled, "confirm")


# ----------------------------------------------------------------------
# Whole-generation screening
# ----------------------------------------------------------------------

#: Diagnostics for the most recent :func:`screen_generation` call.
_LAST_SCREEN_PLAN: Dict[str, Any] = {}

#: The screen backends :func:`screen_generation` accepts (the ``--backend``
#: spelling of ``repro search`` and of ``search-eval`` campaign params).
SCREEN_BACKENDS = ("auto", "python", "vector")

_LOGGER = logging.getLogger(__name__)

#: Fallback reasons already warned about (the "loud" in *falls back loudly*
#: means one warning per distinct reason, not one per generation).
_WARNED_FALLBACKS: Set[str] = set()


def _warn_fallback(reason: str) -> None:
    """Log each distinct screen-planner fallback reason once per process."""
    if reason not in _WARNED_FALLBACKS:
        _WARNED_FALLBACKS.add(reason)
        _LOGGER.warning(
            "auto backend falling back to the reference screen: %s", reason
        )


#: Smallest generation the ``auto`` planner sends to a column lane.  The
#: sim-free kernel steps every column once per time row, so its cost is
#: ~horizon x a fixed numpy overhead almost regardless of the batch, while
#: the reference screen pays per candidate-step; below this batch the
#: reference screen is faster (measured table in ARCHITECTURE.md, "Screen
#: lanes and the auto planner").
_COLUMN_SCREEN_CROSSOVER = 96


def last_screen_plan() -> Dict[str, Any]:
    """Which lane the last :func:`screen_generation` took, and why.

    Keys: ``lane`` (``"column"`` or ``"reference"``), ``reason`` (why the
    reference lane ran — a fallback, a forced backend or a batch below the
    column-screen crossover; ``None`` on the column lane), ``batch``.  Empty
    before the first call.  The campaign and the tests use this to assert the
    auto planner's decisions without scraping logs.
    """
    return dict(_LAST_SCREEN_PLAN)


def screen_generation(
    prop: ScheduleProperty,
    compileds: Sequence[CompiledSchedule],
    checkpoints: int,
    backend: str = "auto",
) -> List[PropertyVerdict]:
    """Screen a whole generation of candidates in one call.

    With ``backend="auto"`` (the planner default) a batch of at least
    ``_COLUMN_SCREEN_CROSSOVER`` candidates gathers its checkpoint snapshots
    through the property's column lane
    (:meth:`ScheduleProperty.batch_screen_snapshots`) and judges each
    candidate with the same :meth:`ScheduleProperty.judge_screen` the
    one-at-a-time path uses — so the verdicts are identical, only cheaper.
    A smaller batch of a property with a column lane takes the per-candidate
    reference :meth:`ScheduleProperty.screen` by plan, without a warning,
    because there the reference screen is the faster lane.  Batches the
    column lane cannot take fall back *loudly* (one log warning per distinct
    reason) to the reference path.  :func:`last_screen_plan` records every
    decision.

    ``backend="vector"`` forces the column lane at any batch size and raises
    :class:`~repro.errors.SimulationError` when it cannot take the batch;
    ``backend="python"`` forces the per-candidate reference path.
    """
    from ..runtime.vector_backend import UnsupportedLowering

    if backend not in SCREEN_BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; registered: {list(SCREEN_BACKENDS)}"
        )
    compiled_list = list(compileds)
    if not compiled_list:
        return []

    def note(lane: str, reason: Optional[str]) -> None:
        _LAST_SCREEN_PLAN.clear()
        _LAST_SCREEN_PLAN.update(
            {"lane": lane, "reason": reason, "batch": len(compiled_list)}
        )

    if backend in ("auto", "vector"):
        # A property that overrides screen() wholesale (instead of judging
        # through judge_screen) cannot be replaced by the snapshot lanes —
        # its per-candidate screen is the only spelling of its verdict.
        if type(prop).screen is not ScheduleProperty.screen:
            reason = (
                f"{type(prop).__name__} overrides screen(); the column lanes "
                "only replace the base checkpoint screen"
            )
            if backend == "vector":
                raise SimulationError(
                    f"vector screening could not take the batch: {reason}"
                )
            note("reference", reason)
            _warn_fallback(reason)
        elif (
            backend == "auto"
            and len(compiled_list) < _COLUMN_SCREEN_CROSSOVER
            and type(prop).batch_screen_snapshots
            is not ScheduleProperty.batch_screen_snapshots
        ):
            note(
                "reference",
                f"batch of {len(compiled_list)} below the column-screen "
                f"crossover ({_COLUMN_SCREEN_CROSSOVER})",
            )
        else:
            try:
                snapshot_lists = prop.batch_screen_snapshots(
                    compiled_list, checkpoints
                )
            except UnsupportedLowering as unsupported:
                if backend == "vector":
                    raise SimulationError(
                        f"vector screening could not take the batch: {unsupported}"
                    ) from unsupported
                note("reference", str(unsupported))
                _warn_fallback(str(unsupported))
            else:
                note("column", None)
                return [
                    prop.judge_screen(snapshots, compiled)
                    for snapshots, compiled in zip(snapshot_lists, compiled_list)
                ]
    else:
        note("reference", f"backend {backend!r} requested")
    return [prop.screen(compiled, checkpoints) for compiled in compiled_list]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Property classes by registry name (the CLI and campaign-kind spelling).
PROPERTY_CLASSES: Dict[str, type] = {
    cls.name: cls
    for cls in (
        KAntiOmegaConvergenceProperty,
        LeaderSetConvergenceProperty,
        AgreementSafetyProperty,
    )
}


def available_properties() -> List[str]:
    """Names of all registered falsifiable properties, sorted."""
    return sorted(PROPERTY_CLASSES)


def property_descriptions() -> Dict[str, str]:
    """One-line description per registered property (first docstring line)."""
    return {
        name: (cls.__doc__ or "").strip().splitlines()[0]
        for name, cls in sorted(PROPERTY_CLASSES.items())
    }


def make_property(name: str, params: Mapping[str, Any]) -> ScheduleProperty:
    """Instantiate a registered property from JSON parameters (``n``/``t``/``k``)."""
    cls = PROPERTY_CLASSES.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown property {name!r}; registered: {available_properties()}"
        )
    return cls(n=int(params["n"]), t=int(params["t"]), k=int(params["k"]))
