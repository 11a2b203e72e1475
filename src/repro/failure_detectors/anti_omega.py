"""The Figure 2 algorithm: t-resilient k-anti-Ω in system ``S^k_{t+1,n}``.

This is a line-by-line transcription of the paper's Figure 2 into the
one-shared-memory-operation-per-step automaton model of
:mod:`repro.runtime.automaton`.  Shared registers:

* ``("Heartbeat", p)`` — initialized to 0, written only by ``p`` (line 7);
* ``("Counter", A, q)`` — initialized to 0 for every k-subset ``A`` of ``Πn``
  and every process ``q``, written only by ``q`` (line 19).

Local state and control flow mirror the pseudocode exactly; the only
extensions are two pluggable policies used by the ablation experiments
(A1, A2) and disabled by default:

* ``accusation_statistic`` — line 3 uses the (t+1)-st smallest entry of
  ``Counter[A, *]``; the ablation swaps in min / max / median to show how each
  breaks one direction of Lemma 15.
* ``timeout_policy`` — line 17 increments the timeout by 1; the ablation
  swaps in doubling or a constant to measure the stabilization-time /
  final-timeout trade-off.

The automaton publishes ``fdOutput``, ``winnerset`` and ``accusations`` (the
local accusation vector) at line 5 of every iteration whose counter collect
differs from the previous one — when it does not, the values are unchanged and
are not re-published — and ``iteration`` after every completed main-loop
iteration, so observers can measure stabilization without touching shared
memory.
"""

from __future__ import annotations

import inspect
from itertools import combinations
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..runtime.automaton import (
    BoundWriteOp,
    CollectOp,
    ProcessContext,
    Program,
    WriteOp,
)
from ..types import ProcessId
from .base import FD_OUTPUT, ITERATION, LEADER, WINNER_SET, FailureDetectorAutomaton

#: A k-subset of Πn, canonically represented as a sorted tuple of process ids.
KSet = Tuple[ProcessId, ...]

#: Statistic applied to the counter vector ``Counter[A, *]`` (line 3).
AccusationStatistic = Callable[[Sequence[int], int], int]
"""Line 3's statistic: ``statistic(vector, t)`` → the accusation of one k-set.

Contract: a statistic must be a pure function of ``(vector, t)`` — no hidden
state, no side effects, equal arguments give equal results.  The automaton
relies on it: an iteration whose counter collect equals the previous one
skips lines 3-5 (see :meth:`KAntiOmegaAutomaton.program`), so a statistic is
called only on collects that changed.  Every statistic in this module is pure.
"""

#: Timeout growth policy applied when a timer expires (line 17).
TimeoutPolicy = Callable[[int], int]


# ----------------------------------------------------------------------
# k-subsets of Πn and the total order used for tie-breaking (line 4)
# ----------------------------------------------------------------------

def k_subsets(n: int, k: int) -> List[KSet]:
    """``Π^k_n``: all k-subsets of ``Πn`` as sorted tuples, in lexicographic order.

    Lexicographic order on the sorted tuples is the arbitrary total order used
    for breaking ties in line 4 of Figure 2.
    """
    if not 1 <= k <= n:
        raise ConfigurationError(f"k-subsets need 1 <= k <= n, got k={k}, n={n}")
    return [tuple(combo) for combo in combinations(range(1, n + 1), k)]


# ----------------------------------------------------------------------
# Pluggable policies (defaults follow the paper exactly)
# ----------------------------------------------------------------------

def paper_accusation_statistic(values: Sequence[int], t: int) -> int:
    """Line 3: the (t+1)-st smallest value of ``Counter[A, *]``."""
    ordered = sorted(values)
    return ordered[t]


def min_accusation_statistic(values: Sequence[int], t: int) -> int:
    """Ablation A1: the smallest counter value (breaks the divergence direction)."""
    return min(values)


def max_accusation_statistic(values: Sequence[int], t: int) -> int:
    """Ablation A1: the largest counter value (breaks the stabilization direction)."""
    return max(values)


def median_accusation_statistic(values: Sequence[int], t: int) -> int:
    """Ablation A1: the median counter value (correct only when t+1 = ceil(n/2))."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def paper_timeout_policy(timeout: int) -> int:
    """Line 17: grow the timeout by one on expiry."""
    return timeout + 1


def doubling_timeout_policy(timeout: int) -> int:
    """Ablation A2: double the timeout on expiry (faster stabilization, larger final timeout)."""
    return timeout * 2


def constant_timeout_policy(timeout: int) -> int:
    """Ablation A2: never grow the timeout (breaks Lemma 11 — counters never settle)."""
    return timeout


#: The four yields of :meth:`KAntiOmegaAutomaton.program`, in iteration order:
#: the counter collect (lines 2-5), the heartbeat write (lines 6-7), the
#: heartbeat collect (lines 8-13) and a counter write (lines 14-19).
AT_COUNTER_COLLECT, AT_HEARTBEAT_WRITE, AT_HEARTBEAT_COLLECT, AT_COUNTER_WRITE = range(4)


class Figure2State(NamedTuple):
    """Figure 2's run state at a yield: its local variables and that yield.

    ``at`` is one of the ``AT_*`` yields and ``index`` the k-set position of
    the counter write when ``at`` is :data:`AT_COUNTER_WRITE`.  The paper's
    mutable vectors are stored as tuples, so one state can seed any number
    of resumed programs.  ``last_collect`` and ``cnt`` are never mutated by
    the program (each collect is a fresh list, each ``cnt`` a fresh matrix),
    so they are shared as they are.
    """

    my_hb: int
    prev_heartbeat: Tuple[int, ...]
    timeout: Tuple[int, ...]
    timer: Tuple[int, ...]
    iteration: int
    last_collect: Optional[List[Any]]
    cnt: Optional[List[List[int]]]
    at: int
    index: int


class KAntiOmegaAutomaton(FailureDetectorAutomaton):
    """One process's copy of the Figure 2 algorithm.

    Parameters
    ----------
    pid, n:
        Process identity.
    t:
        Resilience parameter (``1 <= t <= n - 1``).
    k:
        Anti-Ω degree (``1 <= k <= n - 1``); the detector output has ``n - k``
        processes.
    accusation_statistic, timeout_policy:
        Ablation hooks; defaults are the paper's choices.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        t: int,
        k: int,
        accusation_statistic: AccusationStatistic = paper_accusation_statistic,
        timeout_policy: TimeoutPolicy = paper_timeout_policy,
    ) -> None:
        super().__init__(pid, n, t=t, k=k)
        if not 1 <= t <= n - 1:
            raise ConfigurationError(f"k-anti-Ω needs 1 <= t <= n-1, got t={t}, n={n}")
        if not 1 <= k <= n - 1:
            raise ConfigurationError(f"k-anti-Ω needs 1 <= k <= n-1, got k={k}, n={n}")
        self.t = t
        self.k = k
        self.accusation_statistic = accusation_statistic
        self.timeout_policy = timeout_policy
        self.ksets = k_subsets(n, k)
        processes = list(range(1, n + 1))
        everyone = frozenset(processes)
        # Line 5's fdOutput for each possible winner set, built once.
        self._fd_outputs = [everyone - frozenset(a_set) for a_set in self.ksets]
        # Where each k-set's row Counter[A, *] sits in the counter collect.
        self._rows = [slice(index * n, (index + 1) * n) for index in range(len(self.ksets))]
        # Line 12's ``q in A``: the k-set positions containing q, indexed q - 1.
        self._ksets_containing = [
            [index for index, a_set in enumerate(self.ksets) if q in a_set]
            for q in processes
        ]
        self._heartbeat_register = ("Heartbeat", pid)
        self._counter_registers = [("Counter", a_set, pid) for a_set in self.ksets]
        # Operations are immutable, so unbind() builds the two collects once
        # per automaton; prebind() swaps them for slot-bound ones and adds
        # reusable bound write cells.
        self._heartbeat_write: Optional[BoundWriteOp] = None
        self._counter_writes: Optional[List[BoundWriteOp]] = None
        self.unbind()

    # ------------------------------------------------------------------
    def prebind(self, registers: Any) -> None:
        """Swap the preallocated op tables for slot-bound ones.

        The two collects become :class:`~repro.runtime.automaton.BoundCollectOp`
        values; the heartbeat and per-k-set counter writes become reusable
        :class:`~repro.runtime.automaton.BoundWriteOp` cells whose ``value``
        the program refreshes before each yield, so steady-state iterations
        allocate no ops and dispatch with no name hashing.  Tables are
        rebuilt from the unbound templates on every call, so rebinding to a
        fresh register file is safe (for generators created afterwards).
        """
        self.unbind()
        self._counter_collect = self._counter_collect.bind(registers)
        self._heartbeat_collect = self._heartbeat_collect.bind(registers)
        self._heartbeat_write = WriteOp(self._heartbeat_register, 0).bind(registers)
        self._counter_writes = [
            WriteOp(name, 0).bind(registers) for name in self._counter_registers
        ]

    def unbind(self) -> None:
        """Restore the name-addressed op tables (the inverse of :meth:`prebind`)."""
        processes = range(1, self.n + 1)
        self._counter_collect = CollectOp(
            ("Counter", a_set, q) for a_set in self.ksets for q in processes
        )
        self._heartbeat_collect = CollectOp(("Heartbeat", q) for q in processes)
        self._heartbeat_write = None
        self._counter_writes = None

    # ------------------------------------------------------------------
    @staticmethod
    def declare_registers(register_file: "Any", n: int, k: int) -> None:
        """Declare ``Heartbeat[*]`` and ``Counter[*, *]`` with their initial values.

        Optional — the register file lazily defaults to ``None`` otherwise and
        the automaton treats ``None`` as 0 — but declaring keeps runs closer to
        the paper's explicit initial configuration and enables single-writer
        ownership checks.
        """
        for p in range(1, n + 1):
            register_file.declare(("Heartbeat", p), initial=0, writer=p)
        for a_set in k_subsets(n, k):
            for q in range(1, n + 1):
                register_file.declare(("Counter", a_set, q), initial=0, writer=q)

    # ------------------------------------------------------------------
    def program(self, ctx: ProcessContext, resume: Optional[Figure2State] = None) -> Program:
        """Figure 2 for this process: the main loop, forever.

        Each iteration yields the counter collect (lines 2-5), the heartbeat
        write (lines 6-7), the heartbeat collect (lines 8-13) and one counter
        write per expired timer (lines 14-19).  The ops are bound when the
        automaton is prebound and name-addressed otherwise; the body is the
        same.  Local state is kept in lists indexed by k-set position (the
        order of :attr:`ksets`) or by ``q - 1``.

        Iterations are incremental: lines 3-5 depend only on the counter
        collect, so when a collect equals the previous one (most iterations
        once counters settle) the body skips the conversion, the statistics,
        the argmin and the re-publication of ``fdOutput``/``winnerset``/
        ``accusations``/``leader``, which already hold those values.  Every
        output is the same at every step; only ``outputs_version`` moves less
        often.  ``iteration`` is published every iteration.

        ``at`` names the yield the loop is at, the one piece of run state that
        is not a variable of the paper; with ``index`` and the locals it is
        what :meth:`program_state` reads.  A program started from ``resume``
        (see :meth:`resume_program`) takes its locals from that state and
        enters its loop at the yield ``resume.at`` names.
        """
        n, t = self.n, self.t
        ksets = self.ksets
        count = len(ksets)
        positions = range(count)
        rows = self._rows
        accusation_statistic = self.accusation_statistic
        timeout_policy = self.timeout_policy
        publish = self.publish
        publish_leader = self.k == 1
        fd_outputs = self._fd_outputs
        ksets_containing = self._ksets_containing
        counter_collect = self._counter_collect
        heartbeat_collect = self._heartbeat_collect
        heartbeat_write = self._heartbeat_write
        if heartbeat_write is None:
            heartbeat_write = WriteOp(self._heartbeat_register, 0)
        counter_writes = self._counter_writes
        if counter_writes is None:
            counter_writes = [WriteOp(name, 0) for name in self._counter_registers]
        my_index = self.pid - 1
        # The yields as locals (cheaper to load than the module constants):
        # the loop tests ``at`` against them.
        counter_collect_at, heartbeat_write_at = AT_COUNTER_COLLECT, AT_HEARTBEAT_WRITE
        heartbeat_collect_at, counter_write_at = AT_HEARTBEAT_COLLECT, AT_COUNTER_WRITE

        # Local variables (Figure 2, "Local variables" block).  The paper's
        # ``cnt[A, q]`` matrix is kept as one list per k-set, indexed ``q - 1``.
        # ``last_collect`` is the counter collect lines 3-5 were last derived
        # from; executors hand the program a fresh list per collect, so
        # keeping the reference is safe.
        if resume is None:
            my_hb = 0
            prev_heartbeat = [0] * n
            timeout = [1] * count
            timer = list(timeout)
            iteration = 0
            last_collect = None
            cnt = None
            at, index = AT_COUNTER_COLLECT, 0
        else:
            my_hb = resume.my_hb
            prev_heartbeat = list(resume.prev_heartbeat)
            timeout = list(resume.timeout)
            timer = list(resume.timer)
            iteration = resume.iteration
            last_collect = resume.last_collect
            cnt = resume.cnt
            at, index = resume.at, resume.index

        while True:
            if at == counter_collect_at:
                # Lines 2-5: read Counter[A, q] for every A and q, choose FD output.
                collected = yield counter_collect
                if collected != last_collect:
                    last_collect = collected
                    try:
                        counters = list(map(int, collected))
                    except TypeError:  # an undeclared register reads as None: count it 0
                        counters = [
                            int(value) if value is not None else 0 for value in collected
                        ]
                    cnt = [counters[row] for row in rows]
                    accusation = [accusation_statistic(vector, t) for vector in cnt]
                    # Line 4's tie-break: ksets is in lexicographic order, so
                    # the first position holding the minimum is the winner.
                    winner = accusation.index(min(accusation))
                    # Line 5's assignment is observable immediately (fdOutput
                    # is a local variable the environment may read at any time).
                    publish(FD_OUTPUT, fd_outputs[winner])
                    publish(WINNER_SET, ksets[winner])
                    publish("accusations", dict(zip(ksets, accusation)))
                    if publish_leader:
                        publish(LEADER, ksets[winner][0])
                # Otherwise the collect equals the one lines 3-5 last saw: the
                # statistic is a pure function of (vector, t), so cnt, the
                # accusations and the winner are unchanged, and the four
                # outputs already hold exactly the values re-publishing would
                # write.

                # Lines 6-7: bump the heartbeat.
                my_hb += 1
                at = heartbeat_write_at
            if at == heartbeat_write_at:
                yield heartbeat_write.with_value(my_hb)
                at = heartbeat_collect_at
            if at == heartbeat_collect_at:
                # Lines 8-13: check other processes' heartbeats, reset timers.
                heartbeats = yield heartbeat_collect
                try:
                    heartbeats = list(map(int, heartbeats))
                except TypeError:
                    heartbeats = [
                        int(value) if value is not None else 0 for value in heartbeats
                    ]
                for q_index, hbq in enumerate(heartbeats):
                    if hbq > prev_heartbeat[q_index]:
                        for position in ksets_containing[q_index]:
                            timer[position] = timeout[position]
                        prev_heartbeat[q_index] = hbq
                index = 0
            else:
                # Resumed at the counter write of position ``index``: its
                # timer already expired and was reset before that yield.
                yield counter_writes[index]
                index += 1

            # Lines 14-19: expire timers, accuse.
            at = counter_write_at
            for index in range(index, count) if index else positions:
                timer[index] -= 1
                if timer[index] == 0:
                    timeout[index] = timeout_policy(timeout[index])
                    timer[index] = timeout[index]
                    yield counter_writes[index].with_value(cnt[index][my_index] + 1)
            at = counter_collect_at

            # End-of-iteration bookkeeping (free: local variables only).
            iteration += 1
            publish(ITERATION, iteration)

    def program_state(self, program: Program) -> Optional[Figure2State]:
        """Figure 2's run state at the yield ``program`` is suspended at.

        Reads the generator's live locals (:func:`inspect.getgeneratorlocals`)
        and copies the paper's mutable vectors.  ``None`` for a generator that
        is not this class's :meth:`program` (a subclass that overrides it has
        no hook).
        """
        if getattr(program, "gi_code", None) is not KAntiOmegaAutomaton.program.__code__:
            return None
        local = inspect.getgeneratorlocals(program)
        return Figure2State(
            my_hb=local["my_hb"],
            prev_heartbeat=tuple(local["prev_heartbeat"]),
            timeout=tuple(local["timeout"]),
            timer=tuple(local["timer"]),
            iteration=local["iteration"],
            last_collect=local["last_collect"],
            cnt=local["cnt"],
            at=local["at"],
            index=local["index"],
        )

    def resume_program(self, state: Figure2State) -> Program:
        """A Figure 2 program continuing from ``state``, suspended at its yield.

        The program is advanced to that yield once; the operation it yields
        there is discarded (the original program's step executed it).
        Advancing publishes nothing: every yield is reached before any
        publication of its iteration section.
        """
        program = self.program(self.context(), state)
        next(program)
        return program

    @property
    def resumable(self) -> bool:
        """Whether this automaton runs this class's :meth:`program`, the one with the hook.

        A subclass that overrides :meth:`program` inherits
        :meth:`program_state`, which returns ``None`` for its generators.
        """
        return type(self).program is KAntiOmegaAutomaton.program


def make_anti_omega_algorithm(
    n: int,
    t: int,
    k: int,
    accusation_statistic: AccusationStatistic = paper_accusation_statistic,
    timeout_policy: TimeoutPolicy = paper_timeout_policy,
) -> Dict[ProcessId, KAntiOmegaAutomaton]:
    """One :class:`KAntiOmegaAutomaton` per process — the full Figure 2 algorithm."""
    return {
        pid: KAntiOmegaAutomaton(
            pid=pid,
            n=n,
            t=t,
            k=k,
            accusation_statistic=accusation_statistic,
            timeout_policy=timeout_policy,
        )
        for pid in range(1, n + 1)
    }
