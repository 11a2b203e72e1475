"""(t, k, n)-agreement from the Figure 2 detector (Section 4.3, made concrete).

The paper solves (t, k, n)-agreement by plugging t-resilient k-anti-Ω into the
transformation of Zieliński [21].  Our implementation uses the *stronger*
property the Figure 2 algorithm actually provides — Lemma 22: all correct
processes eventually agree on one winner set ``A0`` of ``k`` processes that
contains a correct process — and the classical leader-based construction on
top of it (see DESIGN.md, substitution table):

* each process runs ``k`` leader-gated consensus instances, one per *slot* of
  the winner set, interleaved fairly (one shared-memory operation per slot in
  rotation);
* every process proposes its initial value to every instance; the perceived
  leader of instance ``m`` is the ``m``-th smallest member of the process's
  *current* winner set (a free local read of the sibling detector);
* a process decides the first value any instance decides.

Safety is unconditional: each instance is a consensus object (so at most one
value per instance, hence at most ``k`` distinct decisions) and only proposed
values circulate (validity).  Termination needs the detector to stabilize:
once all correct processes hold the same winner set ``A0`` forever, the slot
``m0`` of ``A0``'s smallest correct member has a stable correct leader, so
instance ``m0`` decides and everyone learns that decision from its decision
register.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..failure_detectors.anti_omega import KAntiOmegaAutomaton
from ..failure_detectors.base import WINNER_SET
from ..runtime.automaton import ProcessAutomaton, ProcessContext, Program, ReadOp
from ..types import ProcessId
from .consensus import LeaderGatedConsensus

#: Published output key carrying the decision value (``None`` until decided).
DECISION = "decision"
#: Published output key carrying the slot index whose instance decided first.
DECIDED_SLOT = "decided_slot"


class KSetFromAntiOmegaAutomaton(ProcessAutomaton):
    """One process's agreement protocol, layered over a sibling detector automaton.

    Parameters
    ----------
    pid, n:
        Process identity.
    t, k:
        Problem parameters (``1 <= k <= t <= n - 1`` — the ``k > t`` case uses
        the trivial algorithm in :mod:`repro.agreement.trivial` instead).
    input_value:
        The process's initial value.
    detector:
        The same process's :class:`KAntiOmegaAutomaton`; its published winner
        set is read locally (no shared-memory step) to gate the instances.
        Compose the two with :func:`repro.runtime.composition.compose` so the
        detector keeps running while the agreement protocol executes.
    instance_namespace:
        Register-name prefix for the ``k`` consensus instances, shared by all
        processes solving the same agreement instance.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        k: int,
        input_value: Any,
        detector: KAntiOmegaAutomaton,
        instance_namespace: str = "kset",
    ) -> None:
        super().__init__(pid, n, t=t, k=k)
        if not 1 <= k <= t <= n - 1:
            raise ConfigurationError(
                f"the detector-based protocol needs 1 <= k <= t <= n-1, got k={k}, t={t}, n={n}"
            )
        if detector.pid != pid or detector.n != n:
            raise ConfigurationError(
                f"detector belongs to process {detector.pid}/{detector.n}, expected {pid}/{n}"
            )
        self.t = t
        self.k = k
        self.input_value = input_value
        self.detector = detector
        self.instance_namespace = instance_namespace
        # One consensus instance per winner-set slot, shared by every program
        # incarnation; prebind() forwards slot binding to each instance's
        # hoisted decision-register poll (the protocol's hottest operation).
        self._instances = [
            LeaderGatedConsensus(name=(instance_namespace, slot), n=n)
            for slot in range(k)
        ]
        self.publish(DECISION, None)

    def prebind(self, registers: Any) -> None:
        for instance in self._instances:
            instance.prebind(registers)

    def unbind(self) -> None:
        for instance in self._instances:
            instance.unbind()

    # ------------------------------------------------------------------
    def _leader_query(self, slot: int):
        def query() -> Optional[ProcessId]:
            winnerset = self.detector.output(WINNER_SET)
            if winnerset is None:
                return None
            ordered = sorted(winnerset)
            if slot >= len(ordered):
                return None
            return ordered[slot]

        return query

    def decision(self) -> Any:
        """The decided value (``None`` until the process decides)."""
        return self.output(DECISION)

    # ------------------------------------------------------------------
    def program(self, ctx: ProcessContext) -> Program:
        instances = self._instances
        routines: List[Tuple[int, Program]] = [
            (slot, instance.propose(self.pid, self.input_value, self._leader_query(slot)))
            for slot, instance in enumerate(instances)
        ]
        pending: Dict[int, Any] = {slot: None for slot, _ in routines}
        started: Dict[int, bool] = {slot: False for slot, _ in routines}

        while True:
            for slot, routine in list(routines):
                try:
                    if not started[slot]:
                        started[slot] = True
                        op = routine.send(None)
                    else:
                        op = routine.send(pending[slot])
                except StopIteration as stop:
                    # This instance decided: adopt its value and halt.
                    self.publish(DECISION, stop.value)
                    self.publish(DECIDED_SLOT, slot)
                    return stop.value
                result = yield op
                pending[slot] = result
