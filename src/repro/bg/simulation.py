"""A BG-style simulation: m simulators jointly drive n simulated threads.

Theorem 26(2b) and Theorem 27(2b) of the paper reduce impossibilities to the
classical ones via "a simulation algorithm similar to those in [6, 7]" — the
Borowsky–Gafni (BG) simulation.  This module reproduces the *mechanism* of
that simulation so its machinery can be run, measured, and tested:

* every simulated step whose outcome could differ between simulators is
  funnelled through a :class:`~repro.bg.safe_agreement.SafeAgreement` object,
  so all simulators agree on the simulated execution;
* each simulator is inside at most one unsafe window at a time, and it
  round-robins over the simulated threads, skipping any thread whose current
  safe-agreement object is blocked — hence **a crashed simulator blocks at
  most one simulated thread**, the defining property of the BG simulation
  (experiment E8 measures exactly this).

Scope note (documented substitution, see DESIGN.md): the simulated protocols
supported here are *full-information round-based* protocols — in each round a
thread contributes a value computed deterministically from the agreed values
of previous rounds, and a thread's round view may be any subset of the already
agreed contributions of that round that contains its own.  This covers the
write/collect protocols the reduction needs (e.g. agreement protocols), while
avoiding the immediate-snapshot bookkeeping of the full construction in
[Borowsky–Gafni–Lynch–Rajsbaum 2001]; the property that matters for the
paper's argument — one blocked thread per crashed simulator, all simulators
agreeing on the simulated run — is preserved and is what the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError
from ..runtime.automaton import ProcessAutomaton, ProcessContext, Program, ReadOp, WriteOp
from ..types import ProcessId
from .safe_agreement import SafeAgreement, SafeAgreementStatus

#: The simulated protocol: ``contribution(thread, round, agreed_view) -> value``
#: where ``agreed_view`` maps (thread, round) pairs already agreed to their
#: values (round 0 views are the agreed inputs).  Must be deterministic.
ThreadStepFunction = Callable[[int, int, Mapping[Tuple[int, int], Any]], Any]

#: The simulated decision rule: ``decide(thread, rounds, agreed_view) -> value``
#: applied once a thread has completed all its rounds.
ThreadDecisionFunction = Callable[[int, int, Mapping[Tuple[int, int], Any]], Any]

#: Published output key carrying the simulator's map of simulated decisions.
SIMULATED_DECISIONS = "simulated_decisions"
#: Published output key carrying the number of simulated (thread, round) steps resolved.
RESOLVED_STEPS = "resolved_steps"


@dataclass(frozen=True)
class SimulatedProtocol:
    """Description of the n-thread protocol being simulated.

    Attributes
    ----------
    threads:
        Number of simulated threads ``n``.
    rounds:
        Number of full-information rounds each thread executes.
    step:
        Per-round contribution function (see :data:`ThreadStepFunction`).
    decide:
        Decision rule applied after the last round.
    """

    threads: int
    rounds: int
    step: ThreadStepFunction
    decide: ThreadDecisionFunction

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigurationError("the simulated protocol needs at least one thread")
        if self.rounds < 1:
            raise ConfigurationError("the simulated protocol needs at least one round")


class BGSimulatorAutomaton(ProcessAutomaton):
    """One simulator of the BG-style simulation.

    Parameters
    ----------
    pid, n:
        The simulator's identity among the ``m`` real processes.
    protocol:
        The simulated n-thread protocol.
    input_value:
        The simulator's own input; it is proposed as the simulated input of
        every thread whose input has not been agreed yet (the colorless-task
        convention used by the reductions).
    namespace:
        Register-name prefix isolating this simulation's objects.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        protocol: SimulatedProtocol,
        input_value: Any,
        namespace: str = "bg",
    ) -> None:
        super().__init__(pid, n)
        self.protocol = protocol
        self.input_value = input_value
        self.namespace = namespace
        self.publish(SIMULATED_DECISIONS, {})
        self.publish(RESOLVED_STEPS, 0)

    # ------------------------------------------------------------------
    def _agreement_for(self, thread: int, round_number: int) -> SafeAgreement:
        return SafeAgreement(name=(self.namespace, thread, round_number), n=self.n)

    def simulated_decisions(self) -> Dict[int, Any]:
        """Decisions of the simulated threads this simulator has computed so far."""
        return dict(self.output(SIMULATED_DECISIONS, {}))

    # ------------------------------------------------------------------
    def program(self, ctx: ProcessContext) -> Program:
        protocol = self.protocol
        threads = list(range(1, protocol.threads + 1))
        # (thread, round) -> agreed value; round 0 is the agreed input.
        agreed: Dict[Tuple[int, int], Any] = {}
        # thread -> next round to resolve (0 = input not yet agreed).
        next_round: Dict[int, int] = {u: 0 for u in threads}
        # threads for which this simulator already proposed at the current round.
        proposed: Dict[Tuple[int, int], bool] = {}
        decisions: Dict[int, Any] = {}

        while len(decisions) < len(threads):
            progressed = False
            for u in threads:
                if u in decisions:
                    continue
                r = next_round[u]
                agreement = self._agreement_for(u, r)
                key = (u, r)
                if not proposed.get(key, False):
                    # Compute this simulator's proposal for the thread's step.
                    if r == 0:
                        proposal = self.input_value
                    else:
                        proposal = protocol.step(u, r, dict(agreed))
                    # The unsafe window: propose() is the only place a
                    # simulator can block another thread's progress, and the
                    # loop enters it for one (thread, round) at a time.
                    yield from agreement.propose(self.pid, proposal)
                    proposed[key] = True
                    progressed = True
                outcome = yield from agreement.try_resolve(self.pid)
                if outcome.status is SafeAgreementStatus.PENDING:
                    # Another simulator crashed (or is paused) inside the
                    # unsafe window of this thread: skip it and keep the other
                    # threads moving — the BG property in action.
                    continue
                agreed[key] = outcome.value
                next_round[u] = r + 1
                progressed = True
                self.publish(RESOLVED_STEPS, len(agreed))
                if next_round[u] > protocol.rounds:
                    decisions[u] = protocol.decide(u, protocol.rounds, dict(agreed))
                    self.publish(SIMULATED_DECISIONS, dict(decisions))
            if not progressed:
                # Every unfinished thread is blocked; keep taking harmless
                # steps so the simulator stays live (and re-checks later).
                yield ReadOp((self.namespace, "idle", self.pid))
        return dict(decisions)


def make_bg_simulators(
    m: int,
    protocol: SimulatedProtocol,
    inputs: Mapping[ProcessId, Any],
    namespace: str = "bg",
) -> Dict[ProcessId, BGSimulatorAutomaton]:
    """Build the ``m`` simulator automata with the given per-simulator inputs."""
    missing = [pid for pid in range(1, m + 1) if pid not in inputs]
    if missing:
        raise ConfigurationError(f"missing inputs for simulators {missing}")
    return {
        pid: BGSimulatorAutomaton(
            pid=pid, n=m, protocol=protocol, input_value=inputs[pid], namespace=namespace
        )
        for pid in range(1, m + 1)
    }


# ----------------------------------------------------------------------
# A ready-made simulated protocol used by examples, tests and benchmarks.
# ----------------------------------------------------------------------

def full_information_agreement_protocol(threads: int, rounds: int = 2) -> SimulatedProtocol:
    """An n-thread full-information protocol deciding the smallest agreed input.

    Round ``r >= 1`` contribution of thread ``u`` is the set of all agreed
    values it has seen so far; the decision is the minimum input present in
    the thread's final knowledge.  Simulated by ``m`` simulators via the BG
    machinery, all simulated decisions coincide with the minimum *agreed*
    input, so the simulators jointly solve a colorless agreement task — the
    shape of reduction used in the paper's impossibility proofs (there, in the
    contrapositive direction).
    """

    def step(thread: int, round_number: int, agreed: Mapping[Tuple[int, int], Any]) -> Any:
        known: List[Any] = []
        for (u, r), value in agreed.items():
            if r == 0:
                known.append(value)
            elif isinstance(value, tuple):
                known.extend(value)
        return tuple(sorted(set(known)))

    def decide(thread: int, rounds_done: int, agreed: Mapping[Tuple[int, int], Any]) -> Any:
        known: List[Any] = []
        for (u, r), value in agreed.items():
            if r == 0:
                known.append(value)
            elif isinstance(value, tuple):
                known.extend(value)
        return min(known)

    return SimulatedProtocol(threads=threads, rounds=rounds, step=step, decide=decide)
