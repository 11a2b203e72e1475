"""Process automata: algorithms expressed as one-operation-per-step generators.

Section 2.3 of the paper: an algorithm consists of ``n`` deterministic
automata; in each step a process reads or writes one shared register and
changes state.  We express an automaton as a Python generator that *yields*
shared-memory operations and receives the operation's result back:

.. code-block:: python

    class MyProcess(ProcessAutomaton):
        def program(self, ctx):
            heartbeat = yield ReadOp(("Heartbeat", 2))
            yield WriteOp(("Flag", self.pid), heartbeat + 1)

Every step of the paper's model executes exactly one shared-memory operation,
so the schedule that drives the simulator decides the interleaving at the
granularity the proofs reason about.  A :class:`ReadOp` or :class:`WriteOp`
yield is one step.  A :class:`CollectOp` yield is one step *per register*: it
reads its registers in order, one per scheduled step of the yielding process,
and resumes the generator once, after the last read, with the list of values
— exactly the steps a ``for`` loop of single reads would take, without waking
the generator for reads whose values it only stores.  Local computation
between yields is free, matching the model (only shared-memory accesses are
steps).

Helper subroutines are ordinary generators used with ``yield from``; their
``return`` value is delivered to the caller, which keeps multi-operation
patterns (snapshots, adopt-commit) readable while preserving the
one-op-per-step discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Generator,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SimulationError
from ..types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..memory.registers import RegisterFile

#: Register names are arbitrary hashable values (see :mod:`repro.memory.registers`).
#: Re-declared here (rather than imported) to keep the runtime package free of
#: import cycles with the memory package.
RegisterName = Hashable


class ReadOp:
    """Read the register with the given name; the step's result is its value.

    Operations are plain ``__slots__`` value objects on the per-step hot path
    — every algorithm that builds a fresh op per yield pays the constructor —
    so they carry no dataclass machinery.  They are immutable by convention:
    nothing in the library mutates an op after construction, which is what
    lets automata hoist op tables out of their loops and share them across
    iterations (see :meth:`ProcessAutomaton.prebind`).
    """

    __slots__ = ("register",)

    def __init__(self, register: RegisterName) -> None:
        self.register = register

    def bind(self, registers: "RegisterFile") -> "BoundReadOp":
        """Intern this op's register in ``registers`` → a slot-carrying op.

        The returned :class:`BoundReadOp` dispatches by integer slot against
        the file's :class:`~repro.memory.registers.RegisterArena`, skipping
        the per-step name hash.  It must only be yielded in runs driven by
        the same register file it was bound to.
        """
        return BoundReadOp(self.register, registers.resolve_slot(self.register))

    def __repr__(self) -> str:
        return f"ReadOp(register={self.register!r})"

    def __eq__(self, other: Any) -> bool:
        return other.__class__ is self.__class__ and other.register == self.register

    def __hash__(self) -> int:
        return hash((ReadOp, self.register))


class WriteOp:
    """Write ``value`` to the register with the given name; the result is ``None``.

    Same hot-path construction contract as :class:`ReadOp`: a plain
    ``__slots__`` value object, immutable by convention.
    """

    __slots__ = ("register", "value")

    def __init__(self, register: RegisterName, value: Any) -> None:
        self.register = register
        self.value = value

    def bind(self, registers: "RegisterFile") -> "BoundWriteOp":
        """Intern this op's register in ``registers`` → a slot-carrying op.

        The returned :class:`BoundWriteOp` carries this op's current value;
        prebound tables typically treat it as a reusable cell, assigning
        ``bound.value`` before each yield.
        """
        return BoundWriteOp(
            self.register, registers.resolve_slot(self.register), self.value
        )

    def __repr__(self) -> str:
        return f"WriteOp(register={self.register!r}, value={self.value!r})"

    def __eq__(self, other: Any) -> bool:
        return (
            other.__class__ is self.__class__
            and other.register == self.register
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((WriteOp, self.register, self.value))

    def with_value(self, value: Any) -> "WriteOp":
        """This write with ``value`` instead: a fresh op (unbound ops are immutable)."""
        return WriteOp(self.register, value)


class BoundReadOp:
    """A :class:`ReadOp` resolved to its register's arena slot.

    Produced by :meth:`ReadOp.bind`.  The kernel dispatches it straight
    against the arena's parallel lists (``values[slot]``); name-addressed
    paths (:meth:`Simulator.step`, the validation fallback) use ``register``,
    which names the same storage as long as the op is executed under the
    register file it was bound to — the contract :meth:`ProcessAutomaton.prebind`
    upholds automatically.
    """

    __slots__ = ("register", "slot")

    def __init__(self, register: RegisterName, slot: int) -> None:
        self.register = register
        self.slot = slot

    def __repr__(self) -> str:
        return f"BoundReadOp(register={self.register!r}, slot={self.slot})"


class BoundWriteOp:
    """A :class:`WriteOp` resolved to its register's arena slot.

    Produced by :meth:`WriteOp.bind`.  Unlike the unbound ops, ``value`` is
    deliberately assignable: a prebound automaton keeps one bound write op
    per register and refreshes ``value`` before each yield, so steady-state
    steps allocate nothing.  This is safe because the kernel consumes every
    yielded op synchronously within the same step; a bound write op must not
    be stored or compared after yielding.
    """

    __slots__ = ("register", "slot", "value")

    def __init__(self, register: RegisterName, slot: int, value: Any) -> None:
        self.register = register
        self.slot = slot
        self.value = value

    def with_value(self, value: Any) -> "BoundWriteOp":
        """Refresh this reusable cell's ``value`` and return it, ready to yield.

        The bound counterpart of :meth:`WriteOp.with_value`, so a program can
        write through either form with one expression.
        """
        self.value = value
        return self

    def __repr__(self) -> str:
        return (
            f"BoundWriteOp(register={self.register!r}, slot={self.slot}, "
            f"value={self.value!r})"
        )


class CollectOp(ReadOp):
    """Read ``registers`` in order, one per step; the result is their values.

    A collect is a multi-step read: the kernel executes one read per
    scheduled step of the yielding process and resumes the generator once,
    after the last read, with the list of values read (in ``registers``
    order).  Every step is still exactly one shared-memory read, so read
    counts, step counts and publication steps are those of the equivalent
    loop of :class:`ReadOp` yields.  Composition
    (:class:`~repro.runtime.composition.ComposedAutomaton`) expands a
    component's collect back into single reads so its round-robin rotates
    between them.

    A collect is a read, so it subclasses :class:`ReadOp`, but it has no
    single ``register``: executors must test :func:`is_collect_operation`
    before :func:`is_read_operation`.  Same value-object contract as
    :class:`ReadOp`.
    """

    __slots__ = ("registers",)

    def __init__(self, registers: Iterable[RegisterName]) -> None:
        self.registers = tuple(registers)
        if not self.registers:
            raise SimulationError("a collect needs at least one register to read")

    def bind(self, registers: "RegisterFile") -> "BoundCollectOp":
        """Intern every register in ``registers`` → a slot-carrying collect."""
        resolve_slot = registers.resolve_slot
        return BoundCollectOp(
            self.registers, tuple(resolve_slot(name) for name in self.registers)
        )

    def reads(self) -> "Tuple[ReadOp, ...]":
        """The collect as single reads, in order."""
        return tuple(ReadOp(name) for name in self.registers)

    def __repr__(self) -> str:
        return f"CollectOp(registers={self.registers!r})"

    def __eq__(self, other: Any) -> bool:
        return other.__class__ is self.__class__ and other.registers == self.registers

    def __hash__(self) -> int:
        return hash((CollectOp, self.registers))


class BoundCollectOp(BoundReadOp):
    """A :class:`CollectOp` resolved to its registers' arena slots.

    Produced by :meth:`CollectOp.bind`; ``slots[i]`` is the slot of
    ``registers[i]``.  The kernel reads ``values[slot]`` per step, with the
    same binding contract as :class:`BoundReadOp` (whose single ``register``
    and ``slot`` a collect does not have).
    """

    __slots__ = ("registers", "slots")

    def __init__(self, registers: Sequence[RegisterName], slots: Sequence[int]) -> None:
        self.registers = tuple(registers)
        self.slots = tuple(slots)

    def reads(self) -> "Tuple[BoundReadOp, ...]":
        """The collect as single bound reads, in order."""
        return tuple(
            BoundReadOp(name, slot) for name, slot in zip(self.registers, self.slots)
        )

    def __repr__(self) -> str:
        return f"BoundCollectOp(registers={self.registers!r}, slots={self.slots!r})"


#: A shared-memory operation: one step, or one step per register for collects.
Operation = "ReadOp | WriteOp | CollectOp | BoundReadOp | BoundWriteOp | BoundCollectOp"

#: The generator type implementing a process's program: yields operations,
#: receives results, may ``return`` a final value when it halts.
Program = Generator[Any, Any, Any]


@dataclass
class ProcessContext:
    """Per-process execution context handed to :meth:`ProcessAutomaton.program`.

    Attributes
    ----------
    pid:
        The process's id in ``Πn``.
    n:
        Number of processes in the system.
    params:
        Free-form algorithm parameters (e.g. ``t`` and ``k`` for Figure 2).
    """

    pid: ProcessId
    n: int
    params: Dict[str, Any]

    @property
    def processes(self) -> List[ProcessId]:
        """All process ids ``1..n`` in ascending order."""
        return list(range(1, self.n + 1))


class ProcessAutomaton:
    """Base class for the automaton run by one process.

    Subclasses implement :meth:`program` as a generator.  The automaton also
    exposes an ``outputs`` dictionary: algorithms publish their externally
    observable local variables there (e.g. the failure-detector output
    ``fdOutput`` or an agreement ``decision``), and the analysis layer samples
    it after every step.  Outputs are local state, not shared memory — reading
    them costs no step, exactly like reading ``fdOutputp`` in the paper.
    """

    def __init__(self, pid: ProcessId, n: int, **params: Any) -> None:
        if not 1 <= pid <= n:
            raise SimulationError(f"process id {pid} outside Πn = {{1..{n}}}")
        self.pid = pid
        self.n = n
        self.params: Dict[str, Any] = dict(params)
        self.outputs: Dict[str, Any] = {}
        #: Monotone counter bumped by every :meth:`publish`.  The simulator's
        #: fast path samples observers only when this counter moved, so all
        #: mutations of ``outputs`` must go through :meth:`publish`.
        self.outputs_version: int = 0
        #: Per key, the ``outputs_version`` its last :meth:`publish` set.
        #: Lets the fast path skip observers that read none of the keys a
        #: step published (key-scoped sampling, see
        #: :mod:`repro.runtime.kernel`).
        self.output_versions: Dict[str, int] = {}
        #: The register file the simulator last pre-bound this automaton to
        #: (set only for automata that override :meth:`prebind`).  Guards
        #: against a stale binding: a simulator refuses to start a program
        #: whose op tables carry another file's slots.
        self._prebound_registers: Optional[Any] = None

    # ------------------------------------------------------------------
    def context(self) -> ProcessContext:
        """Build the context object passed to :meth:`program`."""
        return ProcessContext(pid=self.pid, n=self.n, params=dict(self.params))

    def prebind(self, registers: "RegisterFile") -> None:
        """Bind preallocated operation tables to ``registers``' arena slots.

        The :class:`~repro.runtime.simulator.Simulator` calls this hook for
        every automaton at construction time — before any :meth:`program`
        generator exists — passing its own register file, so bound ops always
        target the arena that will execute them.  The default is a no-op:
        automata that construct ops per step simply stay on the name-addressed
        path, and the two dispatch paths are observably identical.

        Implementations must rebuild their bound tables from unbound
        templates on every call (an automaton may be rebound to a fresh file)
        and must only yield the resulting bound ops in runs driven by the
        same register file.  Reusing one :class:`BoundWriteOp` per register
        and assigning its ``value`` before each yield is the intended pattern
        for write-heavy loops.
        """

    def unbind(self) -> None:
        """Drop bound op tables and return to name-addressed dispatch.

        The inverse of :meth:`prebind`: implementations restore their unbound
        templates so subsequently created program generators yield plain
        :class:`ReadOp`/:class:`WriteOp` values again.  The simulator calls
        this when constructed with ``prebind=False``, so an automaton bound
        to an earlier simulator's register file cannot leak stale slots into
        a run the caller asked to keep on the name-addressed path.  The
        default is a no-op, matching the default :meth:`prebind`.
        """

    def snapshot_outputs(self) -> Any:
        """The published outputs with their versions, as a value :meth:`restore_outputs` takes.

        :meth:`~repro.runtime.simulator.Simulator.snapshot` calls this for
        every automaton.  Automata that keep other run state on the instance
        (a composition's components and sync bookkeeping) override both
        methods to include it.
        """
        return dict(self.outputs), self.outputs_version, dict(self.output_versions)

    def restore_outputs(self, saved: Any) -> None:
        """Put back what :meth:`snapshot_outputs` returned (``outputs`` keeps its identity)."""
        outputs, version, versions = saved
        self.outputs.clear()
        self.outputs.update(outputs)
        self.outputs_version = version
        self.output_versions.clear()
        self.output_versions.update(versions)

    def program_state(self, program: Program) -> Optional[Any]:
        """The run state of ``program``, this automaton's suspended generator, or ``None``.

        The explicit-state half of the snapshot/resume hook.  An automaton
        that implements it returns a value holding everything the generator
        keeps in its locals and the yield it is suspended at, such that
        :meth:`resume_program` can rebuild an equivalent generator; the value
        must not share mutable objects with the live generator.  The default
        returns ``None``: the automaton has no hook, and a simulator whose
        running programs lack one cannot be snapshotted mid-run (only before
        any program started).
        """
        return None

    def resume_program(self, state: Any) -> Program:
        """A program generator that continues from ``state``, a :meth:`program_state` value.

        The generator is returned suspended at the yield ``state`` names: it
        has already been advanced to that yield once, and the operation it
        yielded there is discarded, since the original program's step
        executed it before the state was taken.  The executor's next
        ``send`` delivers that operation's result, exactly as it would have to
        the original generator.  Only automata that implement
        :meth:`program_state` implement this.
        """
        raise SimulationError(f"{self.describe()} has no program snapshot/resume hook")

    @property
    def resumable(self) -> bool:
        """Whether this automaton implements the :meth:`program_state` hook."""
        return type(self).program_state is not ProcessAutomaton.program_state

    def program(self, ctx: ProcessContext) -> Program:
        """The process's program.  Subclasses must override.

        Must be a generator yielding :class:`ReadOp`/:class:`WriteOp`/
        :class:`CollectOp` values (or their bound forms).
        """
        raise NotImplementedError
        yield  # pragma: no cover - makes the override a generator template

    # ------------------------------------------------------------------
    def publish(self, key: str, value: Any) -> None:
        """Publish an observable local variable (no shared-memory step)."""
        self.outputs[key] = value
        version = self.outputs_version + 1
        self.outputs_version = version
        self.output_versions[key] = version

    def output(self, key: str, default: Any = None) -> Any:
        """Read back a published local variable."""
        return self.outputs.get(key, default)

    def describe(self) -> str:
        """Short human-readable identification used in reports."""
        return f"{self.__class__.__name__}(pid={self.pid})"


class FunctionAutomaton(ProcessAutomaton):
    """Adapter turning a plain generator function into a :class:`ProcessAutomaton`.

    The function receives ``(automaton, ctx)`` so it can publish outputs; this
    is the lightest way to write small test programs and example workloads.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        function: Callable[["FunctionAutomaton", ProcessContext], Program],
        **params: Any,
    ) -> None:
        super().__init__(pid, n, **params)
        self._function = function

    def program(self, ctx: ProcessContext) -> Program:
        """Call the wrapped function with ``(self, ctx)``; its generator is the program."""
        return self._function(self, ctx)


class IdleAutomaton(ProcessAutomaton):
    """An automaton that takes harmless steps forever (writes to a scratch register).

    Used to model processes that exist in ``Πn`` but run no interesting code —
    for example the fictitious processes of Theorem 27(2b)'s construction, or
    filler processes in adversary experiments.  When prebound it reuses one
    bound write op, refreshing its value per step — the minimal example of the
    allocation-free steady state.
    """

    def __init__(self, pid: ProcessId, n: int, **params: Any) -> None:
        super().__init__(pid, n, **params)
        self._scratch_register = ("idle-scratch", pid)
        self._bound_scratch: Optional[BoundWriteOp] = None

    def prebind(self, registers: "RegisterFile") -> None:
        """Bind the scratch write to ``registers`` as one reusable cell."""
        self._bound_scratch = WriteOp(self._scratch_register, 0).bind(registers)

    def unbind(self) -> None:
        """Drop the bound scratch cell; programs write fresh :class:`WriteOp` values."""
        self._bound_scratch = None

    def program(self, ctx: ProcessContext) -> Program:
        """Write an increasing count to the scratch register, forever."""
        count = 0
        scratch = self._bound_scratch
        if scratch is None:
            while True:
                count += 1
                yield WriteOp(self._scratch_register, count)
        while True:
            count += 1
            scratch.value = count
            yield scratch


def validate_operation(op: Any) -> Operation:
    """Check that a yielded object is a shared-memory operation.

    The simulator calls this on every yield so that an algorithm bug (yielding
    a bare value, a coroutine, ...) fails loudly at the offending step.
    """
    if isinstance(op, (ReadOp, WriteOp, BoundReadOp, BoundWriteOp)):
        return op
    raise SimulationError(
        f"automaton yielded {op!r}, which is not a ReadOp/WriteOp/CollectOp (or "
        "their bound forms); every yield must be a shared-memory operation — one "
        "step, or one step per register for a collect"
    )


def is_read_operation(op: Any) -> bool:
    """Whether a validated operation is a read (bound or not, subclass or not).

    Collects are reads too; executors test :func:`is_collect_operation` first.
    """
    return isinstance(op, (ReadOp, BoundReadOp))


def is_collect_operation(op: Any) -> bool:
    """Whether a validated operation is a collect (bound or not, subclass or not)."""
    return isinstance(op, (CollectOp, BoundCollectOp))
