"""The numpy column backend: a batch of replicas as ``(batch × slots)`` columns.

The reference kernel executes one replica at a time: each step advances one
Python generator and touches one arena slot.  For campaign-scale sweeps the
batch dimension is embarrassingly parallel — every replica executes the same
compiled schedule — so this backend flips the loop inside out: replica
register state becomes integer *columns* (one ``(batch,)`` lane per arena
slot, stacked into a ``(batch × slots)`` matrix), and the hot automata are
*lowered* from their pre-bound op tables into a small straight-line column IR
whose step ops are masked numpy gathers and scatters over whole batch lanes.

Column IR
---------
A lowered program is a flat instruction list over six shapes:

``ColRead(slot, store)`` / ``ColWrite(slot, value)``
    Step ops — each consumes exactly one scheduled step of the process, and
    performs the batched equivalent of the generator's yielded
    ``BoundReadOp``/``BoundWriteOp``: one fancy-indexed gather (scatter) on
    the value column plus the operation-count bump.
``ColVec(fn)`` / ``ColBranch(cond, target)`` / ``ColJump(target)``
    Micro ops — the local-state code a generator runs *between* yields.  They
    execute during the process's next scheduled step, before its step op,
    which is exactly when the interpreter runs them; published outputs
    therefore land on the same step index as in the reference kernel.
``ColHalt(value)``
    The generator's ``return``: consumes one scheduled step, performs no
    register operation, and marks the lane halted.

The interpreter keeps one program counter per process.  While every replica
agrees (the common case: identical replicas never diverge) the counter is a
scalar and every op runs over the full batch; a data-dependent
``ColBranch`` whose mask is mixed, or a per-replica crash mask, splits the
batch into row groups that advance independently (``numpy.unique`` grouping).
Per-replica crash masks skip a crashed process's lanes from its crash step
on — equivalent to deleting those steps from that replica's schedule.

Conformance, fallback, and the registry
---------------------------------------
The backend is held byte-identical to the reference kernel — outputs,
tracker change sequences, halting, register values and operation counts,
per-process step accounting (``tests/runtime/test_backends.py`` enforces
this differentially).  Batches it cannot lower — an automaton class without
a registered lowering (:func:`register_lowering`), non-integer register
values, already-started replicas, an every-step sampling policy — fall back
to the reference backend wholesale (or raise, with
``VectorBackend(require_lowering=True)``); :attr:`VectorBackend.last_run`
records which lane ran and why.

numpy is an optional extra (``pip install "repro-set-timeliness[vector]"``).
The module imports without it; requesting the backend without numpy raises
:class:`~repro.errors.ConfigurationError`:

>>> from repro.runtime.backends import get_backend
>>> get_backend("vector").name
'vector'
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Type

try:  # numpy is the optional [vector] extra; every use is behind require_numpy().
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatching in tests
    np = None

from ..agreement.consensus import DecisionPollAutomaton
from ..agreement.kset import DECISION
from ..agreement.trivial import TrivialKSetAgreementAutomaton
from ..core.schedule import Schedule
from ..errors import ConfigurationError, RegisterError, SimulationError
from ..failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    constant_timeout_policy,
    doubling_timeout_policy,
    k_subsets,
    max_accusation_statistic,
    median_accusation_statistic,
    min_accusation_statistic,
    paper_accusation_statistic,
    paper_timeout_policy,
)
from ..failure_detectors.base import FD_OUTPUT, ITERATION, LEADER, WINNER_SET
from ..memory.registers import RegisterFile
from ..types import ProcessId
from .automaton import IdleAutomaton, ProcessAutomaton
from .backends import (
    Backend,
    CrashMask,
    ReferenceBackend,
    Snapshot,
    register_backend,
)
from .kernel import EVERY_STEP, align_replica_arenas, check_observer_capabilities


def require_numpy() -> None:
    """Raise :class:`~repro.errors.ConfigurationError` when numpy is missing."""
    if np is None:
        raise ConfigurationError(
            'the "vector" execution backend needs numpy, which is an optional '
            "dependency of this package; install the vector extra with "
            "pip install \"repro-set-timeliness[vector]\" (or choose "
            '--backend python / backend="python" to stay on the pure-Python '
            "reference kernel)"
        )


# ----------------------------------------------------------------------
# Column IR
# ----------------------------------------------------------------------

#: Instruction tags, checked by integer in the interpreter's inner loop.
_READ, _WRITE, _VEC, _BRANCH, _JUMP, _HALT = range(6)


class ColRead:
    """Step op: batched read of one slot column.

    ``store(rows, values, missing)`` — when given — receives the gathered
    value lane (``None`` registers read as 0) and the ``None``-ness mask, and
    scatters whatever the program's local state needs.  ``store`` runs as
    part of the read step itself and must only touch lowering-local arrays.
    """

    __slots__ = ("kind", "slot", "store")

    def __init__(self, slot: int, store: Optional[Callable] = None) -> None:
        self.kind = _READ
        self.slot = slot
        self.store = store


class ColWrite:
    """Step op: batched write of one slot column.

    ``value(rows)`` produces the written lane (an int scalar or per-row
    array).  ``owner_error`` carries the pre-computed single-writer violation
    message when the writing process does not own the slot; the interpreter
    raises it *before* bumping any count, exactly like the reference arena.
    """

    __slots__ = ("kind", "slot", "value", "owner_error")

    def __init__(self, slot: int, value: Callable, owner_error: Optional[str] = None) -> None:
        self.kind = _WRITE
        self.slot = slot
        self.value = value
        self.owner_error = owner_error


class ColVec:
    """Micro op: ``fn(rows, ctx)`` — masked local-state update, may publish."""

    __slots__ = ("kind", "fn")

    def __init__(self, fn: Callable) -> None:
        self.kind = _VEC
        self.fn = fn


class ColBranch:
    """Micro op: rows where ``cond(rows)`` holds jump to ``target``."""

    __slots__ = ("kind", "cond", "target")

    def __init__(self, cond: Callable, target: int) -> None:
        self.kind = _BRANCH
        self.cond = cond
        self.target = target


class ColJump:
    """Micro op: unconditional jump to ``target``."""

    __slots__ = ("kind", "target")

    def __init__(self, target: int) -> None:
        self.kind = _JUMP
        self.target = target


class ColHalt:
    """Step op: the program returns; ``value(rows)`` yields per-row halt values."""

    __slots__ = ("kind", "value")

    def __init__(self, value: Optional[Callable] = None) -> None:
        self.kind = _HALT
        self.value = value


class ColumnProgram:
    """One process's lowered program: a flat instruction list (entry at 0)."""

    __slots__ = ("instructions",)

    def __init__(self, instructions: Sequence[Any]) -> None:
        self.instructions = list(instructions)


class UnsupportedLowering(Exception):
    """Raised by a lowering when a batch cannot run on the vector lane.

    The backend catches it and falls back to the reference kernel (or raises
    :class:`~repro.errors.SimulationError` under ``require_lowering=True``);
    the message becomes the recorded fallback reason.
    """


# ----------------------------------------------------------------------
# Lowering registry
# ----------------------------------------------------------------------

_LOWERINGS: Dict[Type[ProcessAutomaton], Callable] = {}


def register_lowering(automaton_type: Type[ProcessAutomaton]) -> Callable:
    """Class decorator target: register a lowering for an automaton class.

    The lowering is a callable ``fn(automata, compiler) -> ColumnProgram``
    receiving the per-replica automaton instances for one process (all of
    ``automaton_type``, or a subclass) and a :class:`ColumnCompiler`; it
    raises :class:`UnsupportedLowering` for configurations it cannot
    vectorize.  Lookup walks the MRO, so registering a class covers its
    subclasses (``OmegaAutomaton`` lowers via ``KAntiOmegaAutomaton``).
    """

    def decorate(fn: Callable) -> Callable:
        _LOWERINGS[automaton_type] = fn
        return fn

    return decorate


def lowering_for(automaton_type: Type[ProcessAutomaton]) -> Optional[Callable]:
    """The registered lowering for a class (MRO lookup), or ``None``."""
    for klass in automaton_type.__mro__:
        lowering = _LOWERINGS.get(klass)
        if lowering is not None:
            return lowering
    return None


_INT_LIMIT = 2**62


def _column_int(value: Any) -> bool:
    """Whether a register value fits the int64 column representation."""
    return isinstance(value, int) and not isinstance(value, bool) and -_INT_LIMIT < value < _INT_LIMIT


class ColumnCompiler:
    """Lowering context: slot resolution, ownership checks, batch geometry.

    One compiler serves one chunk of replicas.  :meth:`slot` interns a
    register name in *every* replica (keeping the aligned slot maps aligned)
    and records it as touched; :meth:`write` builds a :class:`ColWrite` with
    the single-writer violation pre-checked against the declared owner.
    """

    def __init__(self, simulators: Sequence[Any]) -> None:
        self.simulators = list(simulators)
        self.batch_size = len(self.simulators)
        self._arenas = [sim.registers.arena_view() for sim in self.simulators]
        self.touched: Dict[int, Hashable] = {}

    def slot(self, name: Hashable) -> int:
        """Intern ``name`` in every replica; the shared slot index."""
        slot = self.simulators[0].registers.resolve_slot(name)
        for sim in self.simulators[1:]:
            if sim.registers.resolve_slot(name) != slot:
                raise UnsupportedLowering(
                    f"replica register layouts diverge at {name!r}; "
                    "the batch cannot share one slot map"
                )
        self.touched[slot] = name
        return slot

    def write(self, pid: ProcessId, name: Hashable, value: Callable) -> ColWrite:
        """A :class:`ColWrite` for ``pid`` writing ``name`` (ownership checked)."""
        slot = self.slot(name)
        owners = {arena.writers[slot] for arena in self._arenas}
        if len(owners) > 1:
            raise UnsupportedLowering(
                f"replicas disagree on the owner of register {name!r}"
            )
        owner = owners.pop()
        owner_error = None
        if owner is not None and owner != pid:
            # The reference arena's canonical single-writer message, raised at
            # the step that executes this write.
            owner_error = (
                f"register {name!r} is owned by process {owner}; "
                f"process {pid} attempted to write it"
            )
        return ColWrite(slot, value, owner_error)

    def uniform(self, automata: Sequence[ProcessAutomaton], attribute: str) -> Any:
        """The shared value of ``attribute`` across replicas, or unsupported."""
        first = getattr(automata[0], attribute)
        for automaton in automata[1:]:
            if getattr(automaton, attribute) != first:
                raise UnsupportedLowering(
                    f"replicas disagree on {type(automata[0]).__name__}.{attribute}; "
                    "the vector lane runs structurally identical batches only"
                )
        return first


# ----------------------------------------------------------------------
# Lowerings for the core automata
# ----------------------------------------------------------------------

#: Vectorized forms of the registry accusation statistics, keyed by identity.
_STATISTIC_LOWERINGS: Dict[Callable, Callable] = {
    paper_accusation_statistic: lambda counters, t: np.sort(counters, axis=2)[:, :, t],
    min_accusation_statistic: lambda counters, t: counters.min(axis=2),
    max_accusation_statistic: lambda counters, t: counters.max(axis=2),
    median_accusation_statistic: lambda counters, t: np.sort(counters, axis=2)[
        :, :, (counters.shape[2] - 1) // 2
    ],
}

#: Vectorized forms of the registry timeout policies, keyed by identity.
_POLICY_LOWERINGS: Dict[Callable, Callable] = {
    paper_timeout_policy: lambda timeouts: timeouts + 1,
    doubling_timeout_policy: lambda timeouts: timeouts * 2,
    constant_timeout_policy: lambda timeouts: timeouts,
}


@register_lowering(KAntiOmegaAutomaton)
def lower_anti_omega(
    automata: Sequence[KAntiOmegaAutomaton], cc: ColumnCompiler
) -> ColumnProgram:
    """Lower Figure 2: counter sweeps, heartbeat phase and timer expiry as columns.

    The per-k-set counter matrix becomes one ``(batch × ksets × n)`` tensor
    refilled by the read phase; accusation statistics, winner selection
    (``argmin`` over the lexicographic k-set order) and timeout policies are
    whole-batch array expressions.  Only the registry statistics and policies
    lower — custom callables fall back to the reference kernel.
    """
    first = automata[0]
    pid, n = first.pid, first.n
    t = cc.uniform(automata, "t")
    k = cc.uniform(automata, "k")
    for automaton in automata[1:]:
        if (
            automaton.accusation_statistic is not first.accusation_statistic
            or automaton.timeout_policy is not first.timeout_policy
        ):
            raise UnsupportedLowering(
                "replicas disagree on the anti-Ω statistic/timeout policies"
            )
    statistic = _STATISTIC_LOWERINGS.get(first.accusation_statistic)
    policy = _POLICY_LOWERINGS.get(first.timeout_policy)
    if statistic is None or policy is None:
        raise UnsupportedLowering(
            "anti-Ω accusation statistic / timeout policy has no vector lowering "
            "(only the registry statistics and policies are vectorized)"
        )

    batch = cc.batch_size
    ksets = first.ksets
    kset_count = len(ksets)
    processes = list(range(1, n + 1))
    my_index = pid - 1

    # Local state, replica-major.
    cnt = np.zeros((batch, kset_count, n), dtype=np.int64)
    prev_heartbeat = np.zeros((batch, n), dtype=np.int64)
    timer = np.ones((batch, kset_count), dtype=np.int64)
    timeout = np.ones((batch, kset_count), dtype=np.int64)
    my_hb = np.zeros(batch, dtype=np.int64)
    iteration = np.zeros(batch, dtype=np.int64)

    # Published objects are shared across replicas and precomputed once.
    fd_objects = [frozenset(processes) - frozenset(a_set) for a_set in ksets]
    reset_tables = {
        q_index: np.array(
            [j for j, a_set in enumerate(ksets) if q in a_set], dtype=np.intp
        )
        for q_index, q in enumerate(processes)
    }

    def store_counter(j: int, q_index: int) -> Callable:
        def store(rows, values, missing):
            cnt[rows, j, q_index] = values

        return store

    def select_and_publish(rows, ctx):
        accusations = statistic(cnt[rows], t)
        winners = np.argmin(accusations, axis=1)
        my_hb[rows] += 1
        publish = ctx.publish
        accusation_lists = accusations.tolist()
        winner_list = winners.tolist()
        for offset, row in enumerate(rows.tolist()):
            j = winner_list[offset]
            publish(row, FD_OUTPUT, fd_objects[j])
            publish(row, WINNER_SET, ksets[j])
            publish(row, "accusations", dict(zip(ksets, accusation_lists[offset])))
            if k == 1:
                publish(row, LEADER, ksets[j][0])

    def store_heartbeat(q_index: int) -> Callable:
        resets = reset_tables[q_index]

        def store(rows, values, missing):
            newer = values > prev_heartbeat[rows, q_index]
            if newer.any():
                fresh = rows[newer]
                timer[np.ix_(fresh, resets)] = timeout[np.ix_(fresh, resets)]
                prev_heartbeat[fresh, q_index] = values[newer]

        return store

    def decrement(j: int) -> Callable:
        def fn(rows, ctx):
            timer[rows, j] -= 1

        return fn

    def not_expired(j: int) -> Callable:
        def cond(rows):
            return timer[rows, j] != 0

        return cond

    def expire(j: int) -> Callable:
        def fn(rows, ctx):
            grown = policy(timeout[rows, j])
            timeout[rows, j] = grown
            timer[rows, j] = grown

        return fn

    def accusation_value(j: int) -> Callable:
        def value(rows):
            return cnt[rows, j, my_index] + 1

        return value

    def end_iteration(rows, ctx):
        iteration[rows] += 1
        publish = ctx.publish
        for row, count in zip(rows.tolist(), iteration[rows].tolist()):
            publish(row, ITERATION, count)

    instructions: List[Any] = []
    # Lines 2-5: the counter sweep (one read step per (k-set, process) pair).
    for j, a_set in enumerate(ksets):
        for q_index, q in enumerate(processes):
            instructions.append(
                ColRead(cc.slot(("Counter", a_set, q)), store_counter(j, q_index))
            )
    # Winner selection + publications, attributed to the heartbeat write step.
    instructions.append(ColVec(select_and_publish))
    instructions.append(
        cc.write(pid, ("Heartbeat", pid), lambda rows: my_hb[rows])
    )
    # Lines 8-13: heartbeat sweep; timer resets happen in the read's store.
    for q_index, q in enumerate(processes):
        instructions.append(
            ColRead(cc.slot(("Heartbeat", q)), store_heartbeat(q_index))
        )
    # Lines 14-19: per-k-set timer expiry and accusation writes.
    for j, a_set in enumerate(ksets):
        instructions.append(ColVec(decrement(j)))
        branch = ColBranch(not_expired(j), target=-1)
        instructions.append(branch)
        instructions.append(ColVec(expire(j)))
        instructions.append(cc.write(pid, ("Counter", a_set, pid), accusation_value(j)))
        branch.target = len(instructions)
    instructions.append(ColVec(end_iteration))
    instructions.append(ColJump(0))
    return ColumnProgram(instructions)


@register_lowering(TrivialKSetAgreementAutomaton)
def lower_trivial(
    automata: Sequence[TrivialKSetAgreementAutomaton], cc: ColumnCompiler
) -> ColumnProgram:
    """Lower the trivial ``t < k`` algorithm: publish once, collect until seen.

    Per-replica input values become a batch lane (so replicas with different
    inputs still share one program); the collect loop keeps the first
    non-``None`` publisher value per row and halts on the decision step.
    """
    first = automata[0]
    pid = first.pid
    t = cc.uniform(automata, "t")
    cc.uniform(automata, "k")
    for automaton in automata:
        if not _column_int(automaton.input_value):
            raise UnsupportedLowering(
                "trivial-agreement input values must be plain ints for the "
                f"vector lane, got {automaton.input_value!r}"
            )
    publishers = list(range(1, t + 2))
    batch = cc.batch_size
    input_column = np.array([a.input_value for a in automata], dtype=np.int64)
    seen_value = np.zeros(batch, dtype=np.int64)
    seen_missing = np.ones(batch, dtype=bool)

    def reset(rows, ctx):
        seen_missing[rows] = True

    def store_collect(rows, values, missing):
        fresh = ~missing & seen_missing[rows]
        if fresh.any():
            hits = rows[fresh]
            seen_value[hits] = values[fresh]
            seen_missing[hits] = False

    def publish_decision(rows, ctx):
        publish = ctx.publish
        for row, value in zip(rows.tolist(), seen_value[rows].tolist()):
            publish(row, DECISION, value)

    instructions: List[Any] = []
    if pid in publishers:
        instructions.append(
            cc.write(pid, ("trivial-input", pid), lambda rows: input_column[rows])
        )
    loop_head = len(instructions)
    instructions.append(ColVec(reset))
    for publisher in publishers:
        instructions.append(
            ColRead(cc.slot(("trivial-input", publisher)), store_collect)
        )
    instructions.append(ColBranch(lambda rows: seen_missing[rows], target=loop_head))
    instructions.append(ColVec(publish_decision))
    instructions.append(ColHalt(lambda rows: seen_value[rows].tolist()))
    return ColumnProgram(instructions)


@register_lowering(DecisionPollAutomaton)
def lower_decision_poll(
    automata: Sequence[DecisionPollAutomaton], cc: ColumnCompiler
) -> ColumnProgram:
    """Lower the decision poll: one gather per step until the lane holds a value."""
    first = automata[0]
    name = cc.uniform(automata, "name")
    batch = cc.batch_size
    decision = np.zeros(batch, dtype=np.int64)
    undecided = np.ones(batch, dtype=bool)

    def store(rows, values, missing):
        decision[rows] = values
        undecided[rows] = missing

    def publish_decision(rows, ctx):
        publish = ctx.publish
        for row, value in zip(rows.tolist(), decision[rows].tolist()):
            publish(row, DECISION, value)

    return ColumnProgram(
        [
            ColRead(cc.slot((name, "decision")), store),
            ColBranch(lambda rows: undecided[rows], target=0),
            ColVec(publish_decision),
            ColHalt(lambda rows: decision[rows].tolist()),
        ]
    )


@register_lowering(IdleAutomaton)
def lower_idle(automata: Sequence[IdleAutomaton], cc: ColumnCompiler) -> ColumnProgram:
    """Lower the idle filler: one owned scratch write per step, counting up."""
    pid = automata[0].pid
    count = np.zeros(cc.batch_size, dtype=np.int64)

    def bump(rows, ctx):
        count[rows] += 1

    return ColumnProgram(
        [
            ColVec(bump),
            cc.write(pid, ("idle-scratch", pid), lambda rows: count[rows]),
            ColJump(0),
        ]
    )


# ----------------------------------------------------------------------
# The lockstep column interpreter
# ----------------------------------------------------------------------


class _VectorResumeGuard:
    """Stand-in generator for vector-executed, still-running process states.

    The vector lane advances column state, not the per-replica Python
    generators, so a replica that ran on it cannot be resumed step-by-step;
    any attempt fails loudly here instead of silently re-running the program
    from its first step.
    """

    __slots__ = ()

    def send(self, value: Any) -> Any:
        raise SimulationError(
            "this replica was executed by the vector backend, which advances "
            "column state instead of the per-process generators; the run "
            "cannot be resumed step-by-step (use the reference backend for "
            "runs you intend to continue)"
        )


_RESUME_GUARD = _VectorResumeGuard()


class _PidContext:
    """What lowered code sees at run time: eager per-replica publication."""

    __slots__ = ("automata", "engine")

    def __init__(self, automata: Sequence[ProcessAutomaton], engine: "_ChunkRun") -> None:
        self.automata = list(automata)
        self.engine = engine

    def publish(self, row: int, key: str, value: Any) -> None:
        """Publish ``key=value`` on replica ``row``'s automaton (sampled later)."""
        self.automata[row].publish(key, value)
        engine = self.engine
        if engine.track_publishes:
            engine.published_rows.append(row)


class _PidRunner:
    """One process's lowered program plus its (scalar or per-row) control state."""

    __slots__ = (
        "pid",
        "instructions",
        "ctx",
        "engine",
        "uniform",
        "pc",
        "halted_flag",
        "pc_array",
        "halted_array",
    )

    def __init__(
        self,
        pid: ProcessId,
        program: ColumnProgram,
        automata: Sequence[ProcessAutomaton],
        engine: "_ChunkRun",
    ) -> None:
        self.pid = pid
        self.instructions = program.instructions
        self.ctx = _PidContext(automata, engine)
        self.engine = engine
        self.uniform = True
        self.pc = 0
        self.halted_flag = False
        self.pc_array = None
        self.halted_array = None

    # -- step-op execution over one row group --------------------------------
    def _execute_step_op(self, instruction: Any, rows: Any) -> bool:
        """Run one step op on ``rows``; True when the rows halted."""
        engine = self.engine
        kind = instruction.kind
        if kind == _READ:
            slot = instruction.slot
            engine.read_counts[rows, slot] += 1
            store = instruction.store
            if store is not None:
                store(rows, engine.values[rows, slot], engine.missing[rows, slot])
            return False
        if kind == _WRITE:
            if instruction.owner_error is not None:
                raise RegisterError(instruction.owner_error)
            slot = instruction.slot
            engine.write_counts[rows, slot] += 1
            engine.values[rows, slot] = instruction.value(rows)
            engine.missing[rows, slot] = False
            return False
        # _HALT: consumes the step, no register traffic.
        values = instruction.value(rows) if instruction.value is not None else None
        engine.note_halt(self.pid, rows, values)
        return True

    # -- control-state management --------------------------------------------
    def _materialize(self) -> None:
        batch = self.engine.batch_size
        self.pc_array = np.full(batch, self.pc, dtype=np.int64)
        self.halted_array = np.full(batch, self.halted_flag, dtype=bool)
        self.uniform = False

    def _run_worklist(self, work: List[Tuple[int, Any]]) -> None:
        """Advance row groups through micros until each executes one step op."""
        instructions = self.instructions
        limit = len(instructions) + 1
        while work:
            pc, rows = work.pop()
            fuel = limit
            while True:
                instruction = instructions[pc]
                kind = instruction.kind
                if kind == _VEC:
                    instruction.fn(rows, self.ctx)
                    pc += 1
                elif kind == _JUMP:
                    pc = instruction.target
                elif kind == _BRANCH:
                    mask = instruction.cond(rows)
                    if mask.all():
                        pc = instruction.target
                    elif not mask.any():
                        pc += 1
                    else:
                        work.append((instruction.target, rows[mask]))
                        rows = rows[~mask]
                        pc += 1
                else:
                    if self._execute_step_op(instruction, rows):
                        self.halted_array[rows] = True
                    else:
                        self.pc_array[rows] = pc + 1
                    break
                fuel -= 1
                if fuel < 0:
                    raise SimulationError(
                        f"vector lowering for process {self.pid} loops without "
                        "a step op (lowering bug)"
                    )

    # -- one scheduled step ---------------------------------------------------
    def step(self, rows: Any, full_batch: bool) -> None:
        """Execute one scheduled step of this process on the given row group."""
        engine = self.engine
        if self.uniform:
            if not full_batch:
                self._materialize()
            elif self.halted_flag:
                engine.note_halted_step(self.pid, rows)
                return
            else:
                self._step_uniform(rows)
                return
        halted = self.halted_array
        stepped_halted = halted[rows]
        if stepped_halted.any():
            engine.note_halted_step(self.pid, rows[stepped_halted])
            rows = rows[~stepped_halted]
            if rows.size == 0:
                return
        pcs = self.pc_array[rows]
        unique_pcs, inverse = np.unique(pcs, return_inverse=True)
        if unique_pcs.size == 1:
            work = [(int(unique_pcs[0]), rows)]
        else:
            work = [
                (int(pc), rows[inverse == index])
                for index, pc in enumerate(unique_pcs)
            ]
        self._run_worklist(work)

    def _step_uniform(self, rows: Any) -> None:
        """The fast path: scalar pc, every op over the full batch."""
        instructions = self.instructions
        pc = self.pc
        fuel = len(instructions) + 1
        while True:
            instruction = instructions[pc]
            kind = instruction.kind
            if kind == _VEC:
                instruction.fn(rows, self.ctx)
                pc += 1
            elif kind == _JUMP:
                pc = instruction.target
            elif kind == _BRANCH:
                mask = instruction.cond(rows)
                if mask.all():
                    pc = instruction.target
                elif not mask.any():
                    pc += 1
                else:
                    # Replicas diverged: finish this step in grouped mode.
                    self.pc = pc
                    self._materialize()
                    self._run_worklist(
                        [(instruction.target, rows[mask]), (pc + 1, rows[~mask])]
                    )
                    return
            else:
                if self._execute_step_op(instruction, rows):
                    self.halted_flag = True
                else:
                    self.pc = pc + 1
                return
            fuel -= 1
            if fuel < 0:
                raise SimulationError(
                    f"vector lowering for process {self.pid} loops without "
                    "a step op (lowering bug)"
                )


class _ChunkRun:
    """One chunk's columns, runners and accounting: the lockstep engine.

    Execution happens in two phases so a failed compile never mutates state:
    :meth:`compile` lowers every scheduled process and builds the value
    columns; :meth:`run` drives the budgeted buffer in lockstep and tears the
    columns back down into the replicas' arenas and process states — also on
    the error path, so a mid-batch violation leaves the same accounting the
    reference kernel does.
    """

    def __init__(
        self,
        simulators: Sequence[Any],
        compiled: Any,
        budget: int,
        policy: Any,
        crash_masks: Optional[Sequence[CrashMask]],
    ) -> None:
        self.simulators = list(simulators)
        self.batch_size = len(self.simulators)
        self.compiled = compiled
        self.budget = budget
        self.policy = policy
        self.crash_masks = crash_masks
        self.all_rows = np.arange(self.batch_size, dtype=np.intp)
        self.runners: Dict[ProcessId, _PidRunner] = {}
        self.published_rows: List[int] = []
        self.track_publishes = False
        self.halt_records: Dict[ProcessId, Dict[int, Any]] = {}
        self.values = None
        self.missing = None
        self.read_counts = None
        self.write_counts = None
        self.touched: Dict[int, Hashable] = {}
        self.strict_rows = None

    # -- compile --------------------------------------------------------------
    def compile(self) -> None:
        """Lower every scheduled process and build the slot columns."""
        sims = self.simulators
        for sim in sims:
            for pid, state in sim._states.items():
                if state.started or state.halted:
                    raise UnsupportedLowering(
                        "the vector lane runs fresh replicas only; process "
                        f"{pid} of a replica was already started"
                    )
                bound = state.automaton._prebound_registers
                if bound is not None and bound is not sim.registers:
                    raise UnsupportedLowering(
                        f"process {pid} is pre-bound to a different simulator's "
                        "register file"
                    )
        if align_replica_arenas(sims) is None:
            raise UnsupportedLowering("replica arenas do not slot-align")
        compiler = ColumnCompiler(sims)
        for pid in sorted(set(self.compiled.steps[: self.budget])):
            automata = [sim._states[pid].automaton for sim in sims]
            classes = {type(automaton) for automaton in automata}
            if len(classes) > 1:
                raise UnsupportedLowering(
                    f"replicas run different automaton classes for process {pid}"
                )
            lowering = lowering_for(automata[0].__class__)
            if lowering is None:
                raise UnsupportedLowering(
                    f"no vector lowering registered for {type(automata[0]).__name__}"
                )
            program = lowering(automata, compiler)
            self.runners[pid] = _PidRunner(pid, program, automata, self)
        self.touched = compiler.touched
        arenas = [sim.registers.arena_view() for sim in sims]
        slot_count = len(arenas[0])
        if any(len(arena) != slot_count for arena in arenas):
            raise UnsupportedLowering("replica arenas diverge in size after lowering")
        batch = self.batch_size
        self.values = np.zeros((batch, slot_count), dtype=np.int64)
        self.missing = np.zeros((batch, slot_count), dtype=bool)
        self.read_counts = np.zeros((batch, slot_count), dtype=np.int64)
        self.write_counts = np.zeros((batch, slot_count), dtype=np.int64)
        for slot, name in self.touched.items():
            for row, arena in enumerate(arenas):
                value = arena.values[slot]
                if value is None:
                    self.missing[row, slot] = True
                elif _column_int(value):
                    self.values[row, slot] = value
                else:
                    raise UnsupportedLowering(
                        f"register {name!r} holds {value!r}, which does not fit "
                        "the int64 column representation"
                    )
        # Unknown automaton state is ruled out above; nothing mutates until run().

    # -- run-time notifications ----------------------------------------------
    def note_halt(self, pid: ProcessId, rows: Any, values: Optional[Sequence[Any]]) -> None:
        """Record per-row halt values for teardown."""
        record = self.halt_records.setdefault(pid, {})
        row_list = rows.tolist()
        if values is None:
            for row in row_list:
                record[row] = None
        else:
            for row, value in zip(row_list, values):
                record[row] = value

    def note_halted_step(self, pid: ProcessId, rows: Any) -> None:
        """A halted process was scheduled: no-op step, unless a replica is strict."""
        if self.strict_rows is not None and self.strict_rows[rows].any():
            raise SimulationError(
                f"process {pid} was scheduled after its program returned"
            )

    # -- run ------------------------------------------------------------------
    def run(self) -> List[Any]:
        """Drive the budgeted buffer and return per-replica results."""
        sims = self.simulators
        batch = self.batch_size
        n = sims[0].n
        buffer = self.compiled.steps[: self.budget]
        self.strict_rows = (
            np.array([sim.strict for sim in sims], dtype=bool)
            if any(sim.strict for sim in sims)
            else None
        )
        observer_lists = [
            [entry.observer for entry in sim.observer_entries()] for sim in sims
        ]
        has_observers = any(observer_lists)
        self.track_publishes = has_observers
        masked = self.crash_masks is not None and any(self.crash_masks)
        start_indices = [sim._step_index for sim in sims]
        runners = self.runners
        all_rows = self.all_rows
        executed = 0
        executed_column = np.zeros(batch, dtype=np.int64) if masked else None
        taken_matrix = np.zeros((batch, n + 1), dtype=np.int64) if masked else None
        limits = None
        if masked:
            limits = np.full((batch, n + 1), _INT_LIMIT, dtype=np.int64)
            for row, mask in enumerate(self.crash_masks):
                if mask:
                    for pid, step in mask.items():
                        limits[row, pid] = step
        seen_sample = (
            {pid: np.zeros(batch, dtype=bool) for pid in runners}
            if has_observers
            else None
        )
        try:
            if not masked and not has_observers:
                for pid in buffer:
                    runners[pid].step(all_rows, True)
                    executed += 1
            elif not masked:
                published = self.published_rows
                for pid in buffer:
                    if published:
                        del published[:]
                    runners[pid].step(all_rows, True)
                    executed += 1
                    seen = seen_sample[pid]
                    if published or not seen.all():
                        self._sample(
                            pid, all_rows, seen, observer_lists, start_indices,
                            executed, None,
                        )
            else:
                published = self.published_rows
                for index, pid in enumerate(buffer):
                    active = limits[:, pid] > index
                    if active.all():
                        rows = all_rows
                        full = True
                    else:
                        rows = all_rows[active]
                        full = False
                        if rows.size == 0:
                            continue
                    if published:
                        del published[:]
                    runners[pid].step(rows, full)
                    executed_column[rows] += 1
                    taken_matrix[rows, pid] += 1
                    if has_observers:
                        seen = seen_sample[pid]
                        if published or not seen[rows].all():
                            self._sample(
                                pid, rows, seen, observer_lists, start_indices,
                                None, executed_column,
                            )
        finally:
            self._teardown(
                buffer, masked, executed, executed_column, taken_matrix, start_indices
            )
        return self._results(
            buffer, masked, executed, executed_column, start_indices, limits
        )

    def _sample(
        self, pid, rows, seen, observer_lists, start_indices, executed_scalar,
        executed_column,
    ) -> None:
        """Publication-gated observer sampling, per replica row."""
        published = set(self.published_rows)
        sims = self.simulators
        for row in rows.tolist():
            if seen[row] and row not in published:
                continue
            seen[row] = True
            observers = observer_lists[row]
            if not observers:
                continue
            step_number = start_indices[row] + (
                executed_scalar if executed_scalar is not None
                else int(executed_column[row])
            )
            sim = sims[row]
            sim._step_index = step_number
            for observer in observers:
                observer(step_number, pid, sim)

    # -- teardown -------------------------------------------------------------
    def _teardown(
        self, buffer, masked, executed, executed_column, taken_matrix, start_indices
    ) -> None:
        """Write columns back into arenas and process states (also on error).

        ``executed`` counts the fully processed buffer positions; an erroring
        step is excluded, matching the reference kernel's exact accounting on
        failure.  (Unlike the reference kernel — which runs replicas
        sequentially, so an error in one replica leaves later replicas
        untouched — the lockstep lanes all advance to the error position; the
        erroring step itself is uncounted in both.)
        """
        sims = self.simulators
        n = sims[0].n
        values = self.values
        missing = self.missing
        read_counts = self.read_counts
        write_counts = self.write_counts
        arenas = [sim.registers.arena_view() for sim in sims]
        for slot in self.touched:
            value_column = values[:, slot].tolist()
            missing_column = missing[:, slot].tolist()
            reads_column = read_counts[:, slot].tolist()
            writes_column = write_counts[:, slot].tolist()
            for row, arena in enumerate(arenas):
                arena.values[slot] = (
                    None if missing_column[row] else value_column[row]
                )
                if reads_column[row]:
                    arena.read_counts[slot] += reads_column[row]
                if writes_column[row]:
                    arena.write_counts[slot] += writes_column[row]
        if masked:
            taken = {
                pid: taken_matrix[:, pid].tolist() for pid in self.runners
            }
            executed_list = executed_column.tolist()
        else:
            tally = Counter(buffer[:executed])
            taken = {
                pid: [tally.get(pid, 0)] * self.batch_size for pid in self.runners
            }
            executed_list = [executed] * self.batch_size
        for pid, runner in self.runners.items():
            halts = self.halt_records.get(pid, {})
            counts = taken[pid]
            for row, sim in enumerate(sims):
                state = sim._states[pid]
                count = counts[row]
                if count:
                    state.steps_taken += count
                if row in halts:
                    state.started = True
                    state.halted = True
                    state.halt_value = halts[row]
                    state.generator = None
                elif count:
                    state.started = True
                    state.generator = _RESUME_GUARD
                    state.pending_result = None
        for row, sim in enumerate(sims):
            sim._step_index = start_indices[row] + executed_list[row]

    def _results(
        self, buffer, masked, executed, executed_column, start_indices, limits
    ) -> List[Any]:
        """Per-replica :class:`~repro.runtime.simulator.RunResult` objects."""
        from .simulator import RunResult

        sims = self.simulators
        n = sims[0].n
        collect = self.policy.collect_trace
        stride = self.policy.trace_stride
        results = []
        for row, sim in enumerate(sims):
            steps_executed = executed if not masked else int(executed_column[row])
            recorded: Tuple[ProcessId, ...] = ()
            if collect:
                kept: List[ProcessId] = []
                step_number = 0
                if masked:
                    row_limits = limits[row]
                    for index, pid in enumerate(buffer):
                        if index >= row_limits[pid]:
                            continue
                        step_number += 1
                        if stride == 1 or (step_number - 1) % stride == 0:
                            kept.append(pid)
                else:
                    for index, pid in enumerate(buffer):
                        if stride == 1 or index % stride == 0:
                            kept.append(pid)
                recorded = tuple(kept)
                sim._trace.extend(recorded)
            results.append(
                RunResult(
                    executed_schedule=Schedule(steps=recorded, n=n),
                    steps_executed=steps_executed,
                    stopped_early=False,
                    halted_processes=sim.halted_processes(),
                    outputs={
                        pid: dict(state.automaton.outputs)
                        for pid, state in sim._states.items()
                    },
                )
            )
        return results


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------


class VectorBackend(Backend):
    """The numpy column backend (registry name ``"vector"``).

    Parameters
    ----------
    chunk:
        Replicas are processed in column groups of at most ``chunk`` rows —
        bounding the ``(batch × slots)`` working set while amortizing the
        per-step interpreter overhead across the whole group.
    require_lowering:
        When true, a batch the vector lane cannot take raises
        :class:`~repro.errors.SimulationError` instead of silently falling
        back to the reference kernel.  The benchmark and the conformance
        suite use this to guarantee the measured/tested lane is the vector
        one.
    """

    name = "vector"

    def __init__(self, chunk: int = 1024, require_lowering: bool = False) -> None:
        if chunk < 1:
            raise ConfigurationError(f"vector backend chunk must be >= 1, got {chunk}")
        self.chunk = chunk
        self.require_lowering = require_lowering
        #: Diagnostics for the most recent :meth:`run_batch` call.
        self.last_run: Dict[str, Any] = {}

    def available(self) -> bool:
        """The vector backend needs numpy (the ``[vector]`` optional extra)."""
        return np is not None

    def ensure_available(self) -> None:
        """Raise the canonical missing-numpy error when numpy is absent."""
        require_numpy()

    def run_batch(
        self,
        simulators: Sequence[Any],
        compiled: Any,
        budget: int,
        policy: Any,
        crash_masks: Optional[Sequence[CrashMask]] = None,
    ) -> List[Any]:
        """Run the batch on the column lane, or fall back to the reference kernel."""
        require_numpy()
        sims = list(simulators)
        for sim in sims:
            check_observer_capabilities(policy, sim.observer_entries())
        chunks: List[_ChunkRun] = []
        obstacle: Optional[str] = None
        if policy.sampling == EVERY_STEP:
            obstacle = (
                f"policy {policy.name!r} samples observers on every step; the "
                "vector lane supports publication-gated sampling only"
            )
        else:
            try:
                for offset in range(0, len(sims), self.chunk):
                    chunk_sims = sims[offset : offset + self.chunk]
                    chunk_masks = (
                        list(crash_masks[offset : offset + self.chunk])
                        if crash_masks is not None
                        else None
                    )
                    chunk = _ChunkRun(chunk_sims, compiled, budget, policy, chunk_masks)
                    chunk.compile()
                    chunks.append(chunk)
            except UnsupportedLowering as unsupported:
                obstacle = str(unsupported)
        if obstacle is not None:
            if self.require_lowering:
                raise SimulationError(
                    f"vector backend could not lower the batch: {obstacle}"
                )
            self.last_run = {"vectorized": False, "reason": obstacle}
            return ReferenceBackend().run_batch(
                sims, compiled, budget, policy, crash_masks
            )
        self.last_run = {
            "vectorized": True,
            "reason": None,
            "chunks": len(chunks),
            "batch": len(sims),
        }
        results: List[Any] = []
        for chunk in chunks:
            results.extend(chunk.run())
        return results


register_backend(VectorBackend())


# ----------------------------------------------------------------------
# Sim-free whole-generation anti-Ω screening
# ----------------------------------------------------------------------


def anti_omega_screen_snapshots(
    n: int,
    t: int,
    k: int,
    compileds: Sequence[Any],
    checkpoints: int,
    keys: Sequence[str],
    accusation_statistic: Callable = paper_accusation_statistic,
    timeout_policy: Callable = paper_timeout_policy,
) -> List[List[Snapshot]]:
    """Checkpoint snapshots for a whole generation of anti-Ω screens, sim-free.

    The convergence screens need only two things per candidate: the published
    ``FD_OUTPUT`` / ``WINNER_SET`` values at ``checkpoints`` evenly spaced
    boundaries of the candidate's schedule.  Building one
    :class:`~repro.runtime.simulator.Simulator` per candidate costs more than
    half a millisecond before the first step runs, so this kernel drops the
    simulator stack entirely: every ``(candidate, process)`` pair becomes one
    *lane* whose Figure 2 interpreter state (counter matrix, heartbeat
    tracking, timers, timeouts, pending accusations) lives in flat numpy
    arrays, and a single pass over the time axis advances each lane through a
    small phase machine — counter-sweep reads, the heartbeat write (where
    winner selection and publication land, exactly as in the reference
    generator), heartbeat reads with timer resets, and the pending
    counter-write queue.  Register state is a dense ``(batch × slots)`` int64
    matrix (every Figure 2 register is declared with initial value 0, so no
    ``None`` tracking is needed).

    Timing is conformant at the observable level: published values and
    register writes land on exactly the reference step indices; purely local
    bookkeeping (timer resets and the expiry cascade) runs one step earlier
    than the generator interleaving, which no read or snapshot can detect.

    Candidates run their *own* schedules — rows are sorted by length
    (descending) internally so live lanes stay a contiguous prefix — and the
    returned snapshots are in the original candidate order:
    ``result[row][i][pid][key]`` is the value published by ``pid`` after
    ``(L_row * (i + 1)) // checkpoints`` steps (``None`` before the first
    publication), byte-identical to what
    :func:`~repro.search.properties.checkpoint_snapshots` collects.

    Raises :class:`UnsupportedLowering` when the batch cannot take this lane
    (numpy missing, a non-registry statistic/policy, keys beyond
    ``FD_OUTPUT``/``WINNER_SET``, or a candidate over a different ``n``) so
    callers can fall back to the reference screen, and
    :class:`~repro.errors.ConfigurationError` for invalid ``checkpoints``.
    """
    if np is None:
        raise UnsupportedLowering(
            "numpy is not installed (the [vector] optional extra)"
        )
    if checkpoints < 1:
        raise ConfigurationError(
            f"checkpoints must be a positive count, got {checkpoints}"
        )
    statistic = _STATISTIC_LOWERINGS.get(accusation_statistic)
    policy = _POLICY_LOWERINGS.get(timeout_policy)
    if statistic is None or policy is None:
        raise UnsupportedLowering(
            "anti-Ω accusation statistic / timeout policy has no vector lowering "
            "(only the registry statistics and policies are vectorized)"
        )
    unknown = [key for key in keys if key not in (FD_OUTPUT, WINNER_SET)]
    if unknown:
        raise UnsupportedLowering(
            f"the anti-Ω screen kernel tracks {FD_OUTPUT!r} and {WINNER_SET!r} "
            f"only, not {unknown!r}"
        )
    compiled_list = list(compileds)
    batch = len(compiled_list)
    if batch == 0:
        return []
    for compiled in compiled_list:
        if compiled.n != n:
            raise UnsupportedLowering(
                f"candidate over {compiled.n} processes in a screen over {n}"
            )

    # Slot layout from a template register file (no simulators anywhere).
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    ksets = k_subsets(n, k)
    kset_count = len(ksets)
    sweep_len = kset_count * n
    write_base = sweep_len + n + 1  # phases: sweep | hb write | hb reads | writes
    slot_count = len(registers.arena_view())
    resolve = registers.resolve_slot
    sweep_slot = np.array(
        [
            resolve(("Counter", ksets[flat // n], (flat % n) + 1))
            for flat in range(sweep_len)
        ],
        dtype=np.int64,
    )
    heartbeat_slot = np.array(
        [0] + [resolve(("Heartbeat", q)) for q in range(1, n + 1)], dtype=np.int64
    )
    counter_write_slot = np.zeros((n + 1, kset_count), dtype=np.int64)
    for p in range(1, n + 1):
        for j, a_set in enumerate(ksets):
            counter_write_slot[p, j] = resolve(("Counter", a_set, p))
    reset_table = np.zeros((n + 1, kset_count), dtype=bool)
    for q in range(1, n + 1):
        for j, a_set in enumerate(ksets):
            reset_table[q, j] = q in a_set
    fd_objects = [
        frozenset(range(1, n + 1)) - frozenset(a_set) for a_set in ksets
    ]

    # Rows sorted by schedule length (descending): live rows stay a prefix.
    lengths = np.array([len(compiled) for compiled in compiled_list], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths_sorted = lengths[order]
    horizon = int(lengths_sorted[0])
    matrix = np.zeros((horizon, batch), dtype=np.int64)
    for position, row in enumerate(order.tolist()):
        steps = compiled_list[row].steps
        if len(steps):
            matrix[: len(steps), position] = np.frombuffer(steps, dtype=np.int32)
    ascending = np.sort(lengths)
    active_counts = batch - np.searchsorted(ascending, np.arange(horizon), side="right")

    # Interpreter state, one lane per (position, pid); lane = position*(n+1)+pid.
    pid_lanes = n + 1
    lanes = batch * pid_lanes
    phase = np.zeros(lanes, dtype=np.int64)
    cnt = np.zeros((lanes, kset_count, n), dtype=np.int64)
    cnt_flat = cnt.reshape(-1)
    prev_heartbeat = np.zeros((lanes, n), dtype=np.int64)
    prev_flat = prev_heartbeat.reshape(-1)
    timer = np.ones((lanes, kset_count), dtype=np.int64)
    timeout = np.ones((lanes, kset_count), dtype=np.int64)
    pending = np.zeros((lanes, kset_count), dtype=bool)
    pending_flat = pending.reshape(-1)
    my_hb = np.zeros(lanes, dtype=np.int64)
    last_winner = np.zeros(lanes, dtype=np.int64)
    has_output = np.zeros(lanes, dtype=bool)
    values_flat = np.zeros(batch * slot_count, dtype=np.int64)

    # Checkpoint events, grouped by effective-step boundary (position space).
    snap_winner = np.zeros((batch, checkpoints, n), dtype=np.int64)
    snap_has = np.zeros((batch, checkpoints, n), dtype=bool)
    events: Dict[int, List[Tuple[int, int]]] = {}
    for position in range(batch):
        total = int(lengths_sorted[position])
        for index in range(1, checkpoints + 1):
            events.setdefault((total * index) // checkpoints, []).append(
                (position, index - 1)
            )
    event_arrays = {
        boundary: (
            np.array([position for position, _ in pairs], dtype=np.intp),
            np.array([slot for _, slot in pairs], dtype=np.intp),
        )
        for boundary, pairs in events.items()
    }
    winner_lanes = last_winner.reshape(batch, pid_lanes)
    output_lanes = has_output.reshape(batch, pid_lanes)

    def capture(boundary: int) -> None:
        pair = event_arrays.get(boundary)
        if pair is not None:
            positions, slots = pair
            snap_winner[positions, slots] = winner_lanes[positions, 1:]
            snap_has[positions, slots] = output_lanes[positions, 1:]

    capture(0)
    positions_all = np.arange(batch, dtype=np.int64)
    lane_base = positions_all * pid_lanes
    value_base = positions_all * slot_count
    # Hot-loop precomputation: lane indices for the whole step matrix in one
    # vector op, and whether the sweep slots are affine in the flat sweep
    # index (they are whenever ``declare_registers`` ran on a fresh file, so
    # the table gather in the dominant band collapses to an add).
    lane_matrix = matrix + lane_base[np.newaxis, :]
    sweep_affine = np.array_equal(
        sweep_slot, n + np.arange(sweep_len, dtype=np.int64)
    )
    for index in range(horizon):
        active = int(active_counts[index])
        column = matrix[index]
        lane = lane_matrix[index]
        vbase = value_base
        if active < batch:
            column = column[:active]
            lane = lane[:active]
            vbase = vbase[:active]
        current = phase[lane]
        # Almost every lane is mid-sweep; pull the stragglers (heartbeat
        # write/reads, pending accusation writes) onto small worklists once
        # instead of testing four band masks against the full column.
        in_sweep = current < sweep_len
        if in_sweep.all():
            laggards = None
            sweep_lane = lane
            flat = current
            vb_sweep = vbase
        else:
            laggards = np.flatnonzero(~in_sweep)
            sweep_lane = lane[in_sweep]
            flat = current[in_sweep]
            vb_sweep = vbase[in_sweep]
        # Counter-sweep reads (Figure 2 lines 2-5).
        if sweep_lane.size:
            if sweep_affine:
                seen = values_flat[vb_sweep + (n + flat)]
            else:
                seen = values_flat[vb_sweep + sweep_slot[flat]]
            cnt_flat[sweep_lane * sweep_len + flat] = seen
            phase[sweep_lane] = flat + 1
        if laggards is None:
            capture(index + 1)
            continue
        lane_lag = lane[laggards]
        cur_lag = current[laggards]
        col_lag = column[laggards]
        vb_lag = vbase[laggards]
        # Heartbeat write: winner selection + publication land here (lines 5-7).
        in_write = cur_lag == sweep_len
        if in_write.any():
            write_lane = lane_lag[in_write]
            accusations = statistic(cnt[write_lane], t)
            last_winner[write_lane] = np.argmin(accusations, axis=1)
            has_output[write_lane] = True
            bumped = my_hb[write_lane] + 1
            my_hb[write_lane] = bumped
            values_flat[
                vb_lag[in_write] + heartbeat_slot[col_lag[in_write]]
            ] = bumped
            phase[write_lane] = sweep_len + 1
        # Heartbeat reads; the expiry cascade runs with the last read (8-15).
        in_read = (cur_lag > sweep_len) & (cur_lag < write_base)
        if in_read.any():
            read_lane = lane_lag[in_read]
            read_phase = cur_lag[in_read]
            target = read_phase - sweep_len  # 1-based heartbeat owner
            seen = values_flat[vb_lag[in_read] + heartbeat_slot[target]]
            prev_index = read_lane * n + (target - 1)
            newer = seen > prev_flat[prev_index]
            if newer.any():
                fresh_lane = read_lane[newer]
                prev_flat[prev_index[newer]] = seen[newer]
                resets = reset_table[target[newer]]
                timer[fresh_lane] = np.where(
                    resets, timeout[fresh_lane], timer[fresh_lane]
                )
            last = read_phase == write_base - 1
            if last.any():
                done_lane = read_lane[last]
                ticked = timer[done_lane] - 1
                expired = ticked == 0
                grown = policy(timeout[done_lane])
                timer[done_lane] = np.where(expired, grown, ticked)
                timeout[done_lane] = np.where(expired, grown, timeout[done_lane])
                pending[done_lane] = expired
                any_expired = expired.any(axis=1)
                phase[done_lane] = np.where(
                    any_expired, write_base + expired.argmax(axis=1), 0
                )
            if not last.all():
                phase[read_lane[~last]] = read_phase[~last] + 1
        # Pending accusation writes (lines 16-19), one k-set per step.
        in_accuse = cur_lag >= write_base
        if in_accuse.any():
            accuse_lane = lane_lag[in_accuse]
            accused = cur_lag[in_accuse] - write_base
            writer = col_lag[in_accuse]
            values_flat[
                vb_lag[in_accuse] + counter_write_slot[writer, accused]
            ] = cnt_flat[accuse_lane * sweep_len + accused * n + (writer - 1)] + 1
            pending_flat[accuse_lane * kset_count + accused] = False
            remaining = pending[accuse_lane]
            still = remaining.any(axis=1)
            phase[accuse_lane] = np.where(
                still, write_base + remaining.argmax(axis=1), 0
            )
        capture(index + 1)

    # Back to original candidate order, as published-object dictionaries.
    # Converged generations repeat a handful of (winner, produced) patterns
    # across tens of thousands of (row, checkpoint) cells, so snapshots are
    # interned by their per-process winner code (-1 = nothing published yet)
    # instead of built cell-by-cell.  Shared dicts are safe: snapshot
    # consumers (the ``judge_screen`` implementations) only read them, and
    # equality with the reference lane's fresh dicts is value equality.
    inverse = np.empty(batch, dtype=np.int64)
    inverse[order] = np.arange(batch, dtype=np.int64)
    want_fd = FD_OUTPUT in keys
    want_winner = WINNER_SET in keys

    def build_entry(code: int) -> Dict[str, Any]:
        entry: Dict[str, Any] = {}
        if want_fd:
            entry[FD_OUTPUT] = fd_objects[code] if code >= 0 else None
        if want_winner:
            entry[WINNER_SET] = ksets[code] if code >= 0 else None
        return entry

    entries = {code: build_entry(code) for code in range(-1, kset_count)}
    codes = np.where(snap_has, snap_winner, -1)
    snapshot_cache: Dict[bytes, Snapshot] = {}
    results: List[List[Snapshot]] = []
    for row in range(batch):
        position = int(inverse[row])
        row_codes = codes[position]
        row_snapshots: List[Snapshot] = []
        for slot in range(checkpoints):
            slot_codes = row_codes[slot]
            key = slot_codes.tobytes()
            snapshot = snapshot_cache.get(key)
            if snapshot is None:
                snapshot = {
                    pid: entries[int(slot_codes[pid - 1])]
                    for pid in range(1, n + 1)
                }
                snapshot_cache[key] = snapshot
            row_snapshots.append(snapshot)
        results.append(row_snapshots)
    return results
