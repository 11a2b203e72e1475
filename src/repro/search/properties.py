"""Pluggable properties: what the schedule search tries to falsify.

A :class:`ScheduleProperty` wraps one of the library's existing checkers —
the k-anti-Ω detector property (:func:`repro.failure_detectors.properties.check_k_anti_omega`),
Lemma 22's winner-set convergence, or the uniform k-agreement safety clauses
(:func:`repro.agreement.problem.check_agreement`) — and judges a candidate
schedule from **one tracked run**.

Each property builds one replica of the system under test on first use
(:meth:`ScheduleProperty.replica`) and rewinds it between candidates
(:meth:`~repro.runtime.simulator.Simulator.rewind`), so a candidate costs one
:meth:`~repro.runtime.simulator.Simulator.run_fast` instead of a simulator
build plus a run; a candidate that shares a long first stretch of steps
with one already run resumes from a snapshot there instead
(:mod:`repro.search.prefix`).  The run carries one
:class:`~repro.runtime.observers.OutputTracker` per published key the
property reads; the trackers live only while their candidate is judged.
Two judges read them:

``judge_screen(snapshots, compiled)``
    The verdict at checkpoint resolution, from the published outputs at
    evenly spaced step boundaries (:func:`tracker_snapshots` derives them
    from the trackers' change lists).  Good enough to rank candidates and to
    flag potential violations.

``judge_confirm(trackers, compiled)``
    The exact verdict, from the library's own property checker over the
    full change lists.  A candidate only ever counts as a *violation* on the
    word of this judge.

:meth:`ScheduleProperty.screen` and :meth:`ScheduleProperty.confirm` run one
candidate each and apply one judge (the shrinker's predicates call them).
:func:`screen_generation` screens a whole generation; for each candidate its
caller flags, the exact verdict comes from the same run, attached to the
screen verdict as :attr:`PropertyVerdict.exact`.

Both judges read the ground-truth correct set from the candidate's compiled
crash metadata, exactly like every other harness in the library.  Fitness is
a number in ``[0, 1]`` where higher means closer to falsifying the property —
the engine maximizes it, so near-misses surface even when no candidate
violates anything (the expected outcome inside the model).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..agreement.kset import DECISION
from ..agreement.problem import check_agreement, distinct_inputs
from ..agreement.runner import build_agreement_algorithm
from ..core.schedule import CompiledSchedule
from ..errors import ConfigurationError
from ..failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    make_anti_omega_algorithm,
)
from ..failure_detectors.base import FD_OUTPUT, WINNER_SET
from ..failure_detectors.properties import check_k_anti_omega, check_leader_set_convergence
from ..memory.registers import RegisterFile
from ..runtime.observers import OutputTracker
from ..runtime.simulator import Simulator
from ..types import AgreementInstance, ProcessId, ProcessSet, universe
from .prefix import PrefixPlan, PrefixRunner, plan_prefix_runs

#: One ``pid -> {key: value}`` published-output sample (a checkpoint snapshot).
Snapshot = Dict[ProcessId, Dict[str, Any]]

#: One tracker per tracked output key, as a tracked run hands them to a judge.
Trackers = Mapping[str, OutputTracker]


@dataclass(frozen=True)
class PropertyVerdict:
    """One property evaluation of one candidate schedule.

    ``violated`` means the property failed on this candidate *as judged by
    the mode that produced the verdict* (checkpoint-resolution for ``screen``,
    exact for ``confirm``); whether that counts as a paper-level
    counterexample is decided later by certification.  ``fitness`` is the
    property's own violation-proximity score in ``[0, 1]``; ``details`` is a
    JSON-safe dict of whatever the property wants reported.  ``exact`` is
    set only on a screen verdict whose candidate was flagged during
    :func:`screen_generation`: the confirm verdict of the same run.
    """

    property_name: str
    violated: bool
    fitness: float
    mode: str
    details: Dict[str, Any] = field(default_factory=dict)
    exact: Optional["PropertyVerdict"] = None


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
        self._replica: Optional[Simulator] = None

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
    #: Published keys the screen snapshots sample (one tracker per key).
    screen_keys: Tuple[str, ...] = ()
    #: Published keys the exact verdict reads (one tracker per key).
    confirm_keys: Tuple[str, ...] = ()

    @abstractmethod
    def _build_simulator(self) -> Simulator:
        """A fresh instrumentation-free replica of the system under test."""

    def replica(self) -> Simulator:
        """The property's replica: built on first use, rewound between runs."""
        if self._replica is None:
            self._replica = self._build_simulator()
        return self._replica

    @contextmanager
    def tracked_run(
        self, compiled: CompiledSchedule, keys: Sequence[str]
    ) -> Iterator[Dict[str, OutputTracker]]:
        """Run ``compiled`` once on the replica, tracking each of ``keys``.

        Yields ``key -> tracker`` after the run.  On exit the replica is
        rewound, which detaches the trackers, so none outlives its candidate.
        Not reentrant: the body must not run another candidate of this
        property (judge the trackers, then run the next).
        """
        simulator = self.replica()
        trackers = {key: OutputTracker(key=key) for key in keys}
        try:
            for tracker in trackers.values():
                simulator.add_observer(tracker)
            simulator.run_fast(compiled)
            yield trackers
        finally:
            simulator.rewind()

    def evaluate(
        self,
        compiled: CompiledSchedule,
        checkpoints: int,
        flagged: Optional[Callable[[PropertyVerdict], bool]] = None,
    ) -> PropertyVerdict:
        """The screen verdict, plus the exact one when ``flagged`` says so.

        One tracked run serves both judges: when ``flagged(screen)`` holds,
        :meth:`judge_confirm` reads the same trackers and its verdict is
        attached as the screen verdict's ``exact``.
        """
        with self.tracked_run(compiled, self.evaluation_keys(flagged is not None)) as trackers:
            return self.judge(trackers, compiled, checkpoints, flagged)

    def evaluation_keys(self, flagging: bool) -> Tuple[str, ...]:
        """The keys :meth:`evaluate` tracks: the screen's, plus the exact judge's when flagging."""
        if not flagging:
            return self.screen_keys
        return tuple(dict.fromkeys(self.screen_keys + self.confirm_keys))

    def judge(
        self,
        trackers: Trackers,
        compiled: CompiledSchedule,
        checkpoints: int,
        flagged: Optional[Callable[[PropertyVerdict], bool]] = None,
    ) -> PropertyVerdict:
        """:meth:`evaluate`'s verdict from the trackers of ``compiled``'s run."""
        snapshots = tracker_snapshots(
            trackers, self.screen_keys, compiled.n, len(compiled), checkpoints
        )
        screen = self.judge_screen(snapshots, compiled)
        if flagged is not None and flagged(screen):
            screen = replace(screen, exact=self.judge_confirm(trackers, compiled))
        return screen

    def screen(self, compiled: CompiledSchedule, checkpoints: int) -> PropertyVerdict:
        """The verdict at checkpoint resolution, from one tracked run."""
        return self.evaluate(compiled, checkpoints)

    def confirm(self, compiled: CompiledSchedule) -> PropertyVerdict:
        """The exact verdict (the word that counts), from one tracked run."""
        with self.tracked_run(compiled, self.confirm_keys) as trackers:
            return self.judge_confirm(trackers, compiled)

    @abstractmethod
    def judge_screen(
        self, snapshots: List[Snapshot], compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """The screen verdict from checkpoint snapshots."""

    @abstractmethod
    def judge_confirm(
        self, trackers: Trackers, compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """The exact verdict from the change lists of :attr:`confirm_keys`."""


# ----------------------------------------------------------------------
# Checkpoint snapshots from tracker change lists
# ----------------------------------------------------------------------

def tracker_snapshots(
    trackers: Trackers,
    keys: Sequence[str],
    n: int,
    length: int,
    checkpoints: int,
) -> List[Snapshot]:
    """The published outputs under ``keys`` at ``checkpoints`` step boundaries.

    ``trackers`` recorded one run of ``length`` steps from a fresh (or
    rewound) simulator.  Boundary ``i`` (``1..checkpoints``) falls after step
    ``(length * i) // checkpoints``.  A tracker counts steps from 1, so a
    change recorded at step ``s`` is visible after ``s`` steps: the value at
    boundary ``b`` is the last change with ``step <= b``, and ``None`` before
    the process's first change.  Boundaries that coincide (``checkpoints``
    exceeding ``length``) repeat a snapshot; the last snapshot holds the
    final outputs.  Returns one ``pid -> {key: value}`` snapshot per
    boundary.
    """
    if checkpoints < 1:
        raise ConfigurationError(f"checkpoints must be >= 1, got {checkpoints}")
    bounds = [(length * index) // checkpoints for index in range(1, checkpoints + 1)]
    pids = range(1, n + 1)
    snapshots: List[Snapshot] = [{pid: {} for pid in pids} for _ in bounds]
    for key in keys:
        changes = trackers[key].changes
        current: List[Any] = [None] * (n + 1)
        position = 0
        for snapshot, bound in zip(snapshots, bounds):
            while position < len(changes) and changes[position].step <= bound:
                change = changes[position]
                current[change.pid] = change.value
                position += 1
            for pid in pids:
                snapshot[pid][key] = current[pid]
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
    confirm_keys = (FD_OUTPUT, WINNER_SET)

    def _build_simulator(self) -> Simulator:
        registers = RegisterFile()
        KAntiOmegaAutomaton.declare_registers(registers, n=self.n, k=self.k)
        automata = make_anti_omega_algorithm(n=self.n, t=self.t, k=self.k)
        return Simulator(n=self.n, automata=automata, registers=registers)

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

    def judge_confirm(
        self, trackers: Trackers, compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """Exact verdict via :func:`check_k_anti_omega` over the trackers."""
        fd_tracker = trackers[FD_OUTPUT]
        winner_tracker = trackers[WINNER_SET]
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
    confirm_keys = (WINNER_SET,)

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

    def judge_confirm(
        self, trackers: Trackers, compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """Exact verdict via :func:`check_leader_set_convergence` (Lemmas 20/22)."""
        winner_tracker = trackers[WINNER_SET]
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
    confirm_keys = (DECISION,)

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

    def judge_confirm(
        self, trackers: Trackers, compiled: CompiledSchedule
    ) -> PropertyVerdict:
        """Exact verdict: :func:`check_agreement` on the final decisions."""
        finals = trackers[DECISION].final_values()
        decisions = {pid: finals.get(pid) for pid in range(1, self.n + 1)}
        return self._judge(decisions, compiled, "confirm")


# ----------------------------------------------------------------------
# Whole-generation screening
# ----------------------------------------------------------------------

#: Diagnostics for the most recent :func:`screen_generation` call.
_LAST_SCREEN_PLAN: Dict[str, Any] = {}


def last_screen_plan() -> Dict[str, Any]:
    """Which lane the last :func:`screen_generation` took, for how many candidates.

    Keys: ``lane`` (always ``"reference"``: every candidate is one tracked
    run on the reference kernel) and ``batch``.  Empty before the first call.
    """
    return dict(_LAST_SCREEN_PLAN)


def screen_generation(
    prop: ScheduleProperty,
    compileds: Sequence[CompiledSchedule],
    checkpoints: int,
    flagged: Optional[Callable[[int, PropertyVerdict], bool]] = None,
) -> List[PropertyVerdict]:
    """Screen a whole generation: one tracked run per candidate.

    Every candidate runs once on the property's replica, and the verdicts
    equal the one-at-a-time :meth:`ScheduleProperty.evaluate` ones.  The
    runs follow the sorted-prefix plan (:func:`~repro.search.prefix.plan_prefix_runs`):
    candidates run in sorted step-buffer order, each resuming from a
    snapshot at its shared prefix with the previous one, so a shared prefix
    is stepped once; the trackers, attached once, are restored with every
    snapshot.  A property whose replica lacks the resume hook
    (:attr:`~repro.runtime.simulator.Simulator.resumable`) runs every
    candidate whole, in batch order.  With ``flagged``, the candidate at
    position ``i`` whose screen verdict ``v`` makes ``flagged(i, v)`` true
    also gets its exact verdict from that same run, as ``v.exact`` —
    flagged candidates pay no second run.
    """
    compiled_list = list(compileds)
    _LAST_SCREEN_PLAN.clear()
    _LAST_SCREEN_PLAN.update({"lane": "reference", "batch": len(compiled_list)})
    simulator = prop.replica()
    if simulator.resumable:
        plan = plan_prefix_runs([compiled.steps for compiled in compiled_list])
    else:
        plan = PrefixPlan.whole(len(compiled_list))
    keys = prop.evaluation_keys(flagged is not None)
    trackers = {key: OutputTracker(key=key) for key in keys}
    verdicts: List[Optional[PropertyVerdict]] = [None] * len(compiled_list)
    try:
        for tracker in trackers.values():
            simulator.add_observer(tracker)
        runner = PrefixRunner(simulator)
        for index, resume, pauses in zip(plan.order, plan.resume, plan.pauses):
            compiled = compiled_list[index]
            runner.run(compiled, resume, pauses)
            verdicts[index] = prop.judge(
                trackers,
                compiled,
                checkpoints,
                None if flagged is None else partial(flagged, index),
            )
    finally:
        simulator.rewind()
    return verdicts


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
