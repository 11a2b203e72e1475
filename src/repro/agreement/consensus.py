"""Leader-gated, register-based consensus (one instance per winner-set slot).

The agreement layer of Section 4.3 needs, for each of the ``k`` slots of the
eventually-stable winner set, a consensus object that

* is always safe (agreement + validity) in a completely asynchronous run, and
* terminates for every correct process once the slot's perceived leader is the
  same correct process at all correct processes forever.

This is the classical "obstruction-free consensus + Ω ⇒ consensus" recipe:

* **Safety** comes from a sequence of adopt-commit objects, one per round.  A
  process carries an *estimate* through rounds ``1, 2, 3, ...``, proposing it
  to the round's adopt-commit object; if the object commits, the process
  writes the value to a decision register and decides; if it adopts, the
  adopted value becomes the new estimate.  If some process commits ``v`` in
  round ``r``, every process finishing round ``r`` leaves with estimate ``v``,
  so all later rounds can only ever see ``v`` — agreement.
* **Liveness** comes from gating: a process attempts a round only while it
  believes it is the leader (a free local query supplied by the caller —
  in our stack, a lookup of the sibling detector's current winner set);
  otherwise it just polls the decision register, one step per poll.  After the
  leader stabilizes, at most one in-flight round per other process can still
  be polluted; beyond those the stable leader runs its rounds solo, commits,
  and publishes the decision for everyone to read.

The routine is a generator subroutine (``yield from``-able), so the k-set
agreement automaton can interleave ``k`` instances fairly within one process.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional

from ..runtime.automaton import Operation, Program, ReadOp, WriteOp
from ..types import ProcessId
from .adopt_commit import AdoptCommit, Grade

#: A free local query returning the process currently believed to lead this
#: instance (or ``None`` when no belief is available yet).
LeaderQuery = Callable[[], Optional[ProcessId]]


class LeaderGatedConsensus:
    """A named consensus instance over processes ``1..n``.

    Registers: a decision register ``(name, "decision")`` plus the registers of
    one :class:`AdoptCommit` object per round (``(name, round, "A"/"B", p)``).

    The decision-register poll is the instance's hot operation — a gated-out
    process spends every one of its steps on it — so the read op is hoisted
    and reused across polls, and :meth:`prebind` upgrades it to a slot-bound
    op for allocation- and hash-free dispatch.  The per-round adopt-commit
    registers are fresh names per round and stay name-addressed.
    """

    def __init__(self, name: Hashable, n: int) -> None:
        self.name = name
        self.n = n
        self._decision_read: Operation = ReadOp(self._decision_register())

    # ------------------------------------------------------------------
    def prebind(self, registers: Any) -> None:
        """Bind the hoisted decision-register read to its arena slot."""
        self._decision_read = ReadOp(self._decision_register()).bind(registers)

    def unbind(self) -> None:
        """Restore the name-addressed decision read (inverse of :meth:`prebind`)."""
        self._decision_read = ReadOp(self._decision_register())

    # ------------------------------------------------------------------
    def _decision_register(self) -> Hashable:
        return (self.name, "decision")

    def _round_object(self, round_number: int) -> AdoptCommit:
        return AdoptCommit(name=(self.name, round_number), n=self.n)

    # ------------------------------------------------------------------
    def propose(self, pid: ProcessId, value: Any, leader_query: LeaderQuery) -> Program:
        """Propose ``value``; runs until a decision is known, then returns it.

        The routine never returns in runs where no decision is ever reached —
        callers bound it with the simulator's step budget, exactly as the
        paper's algorithms are judged over schedules.
        """
        estimate = value
        round_number = 0
        decision_read = self._decision_read
        while True:
            decision = yield decision_read
            if decision is not None:
                return decision
            if leader_query() != pid:
                # Gated out: keep polling (the read above was this step's op).
                continue
            round_number += 1
            result = yield from self._round_object(round_number).propose(pid, estimate)
            estimate = result.value
            if result.grade is Grade.COMMIT:
                yield WriteOp(self._decision_register(), estimate)
                return estimate

    def read_decision(self, pid: ProcessId) -> Program:
        """One-step poll of the decision register (``None`` when undecided)."""
        decision = yield self._decision_read
        return decision
