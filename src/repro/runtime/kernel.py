"""The execution kernel: the bare loop behind :meth:`Simulator.run_fast`.

The simulator runs a schedule in one of two loops, each with one job.
:meth:`~repro.runtime.simulator.Simulator.run` is the reference: it calls
:meth:`~repro.runtime.simulator.Simulator.step` once per scheduled pid,
records the trace, samples every observer after every step and checks a
stop condition.  :meth:`~repro.runtime.simulator.Simulator.run_fast` is this
module's :func:`execute`, which runs :func:`_execute_bare`: the same steps
with the same externally observable effects (outputs, halting, register
operation counts, per-process step counts, tracker change lists), without
the trace and without per-step observer calls.  Over a whole
:class:`~repro.core.schedule.CompiledSchedule` it iterates the flat
``array('i')`` buffer at C speed with the buffer's cached step counts; a raw
``array('i')`` that is the whole budget (a segment of such a buffer) goes in
as it is too, tallied once.

The bare loop samples observers only on steps where the stepped process
published an output some observer reads — detected via
:attr:`~repro.runtime.automaton.ProcessAutomaton.outputs_version` and the
per-key :attr:`~repro.runtime.automaton.ProcessAutomaton.output_versions` —
so it enforces observer *capabilities*: an observer that needs to see every
step (capability ``"every_step"``) makes :func:`execute` raise
:class:`~repro.errors.SimulationError` instead of silently under-sampling.
Change-recording observers such as
:class:`~repro.runtime.observers.OutputTracker` declare ``"on_publish"``:
version-gated sampling hands them byte-identical change sequences, because on
every skipped step they would have observed an unchanged value.  Sampling is
also key-scoped: a tracker names the one key it reads, so a step that
published only other keys (Figure 2's per-iteration ``iteration``) skips it.

Register dispatch is slot-addressed: the loop holds the register file's
:class:`~repro.memory.registers.RegisterArena` parallel lists and executes a
pre-bound op (:class:`~repro.runtime.automaton.BoundReadOp` /
:class:`~repro.runtime.automaton.BoundWriteOp`) as two list indexes —
``values[op.slot]`` — with no name hash at all.  Unbound ops resolve their
name to a slot through the arena's interning dict (one C-level probe), so
both op shapes execute against the same flat storage and are observably
identical.

A collect (:class:`~repro.runtime.automaton.CollectOp` /
:class:`~repro.runtime.automaton.BoundCollectOp`) executes one read per
scheduled step of its process without resuming the generator; the process's
in-flight collect is an iterator over the slots it has yet to read
(``ProcessState.collect_reads``, shared with :meth:`Simulator.step`), and the
step that finds it exhausted resumes the generator with the collected values.

``kernel.py`` and ``simulator.py`` are two halves of one component — the
:class:`~repro.runtime.simulator.Simulator` façade owns the run state, the
kernel drives it — so the kernel works on the simulator's internal fields
directly.  The one cross-subsystem boundary, shared memory, goes through the
sanctioned :meth:`repro.memory.registers.RegisterFile.arena_view` /
:meth:`~repro.memory.registers.RegisterFile.resolve_slot` accessors; the
kernel never touches another module's privates.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.schedule import (
    CompiledSchedule,
    InfiniteSchedule,
    Schedule,
    first_step_outside,
    tally_steps,
)
from ..errors import SimulationError
from ..types import ProcessId
from .automaton import (
    BoundCollectOp,
    BoundReadOp,
    BoundWriteOp,
    ReadOp,
    WriteOp,
    is_collect_operation,
    is_read_operation,
    validate_operation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..memory.registers import RegisterFile
    from .automaton import Operation
    from .simulator import (
        ObserverEntry,
        RunResult,
        ScheduleSource,
        Simulator,
    )

#: Observer capability: must be sampled after every executed step.
EVERY_STEP = "every_step"
#: Observer capability: only needs steps on which the process published.
ON_PUBLISH = "on_publish"

#: The capabilities an observer may declare.
OBSERVER_CAPABILITIES = (EVERY_STEP, ON_PUBLISH)


def _check_max_steps(max_steps: Optional[int]) -> None:
    if max_steps is not None and max_steps < 1:
        raise SimulationError(
            f"max_steps must be a positive step budget, got {max_steps}; "
            "a run that may execute zero steps is almost certainly a bug "
            "(omit max_steps to run a finite schedule to its end)"
        )


def normalize_source(
    n: int, schedule: "ScheduleSource", max_steps: Optional[int]
) -> Tuple[Iterator[ProcessId], int]:
    """Resolve a schedule source into ``(step iterator, step budget)``.

    Budget semantics: for a finite :class:`Schedule` or
    :class:`~repro.core.schedule.CompiledSchedule` the budget is its length,
    capped by ``max_steps`` when given; an :class:`InfiniteSchedule` (or any
    bare iterable when ``max_steps`` is given) is budgeted at exactly
    ``max_steps``; an ``array('i')`` step buffer is budgeted like a finite
    schedule (unvalidated: the loop checks its pids); any other bare
    iterable without ``max_steps`` is materialized and budgeted at its full
    length.  An explicit ``max_steps`` must be positive —
    a budget of zero or fewer steps would silently execute nothing, which has
    never been what the caller meant, so it is rejected with
    :class:`SimulationError`.
    """
    _check_max_steps(max_steps)
    if isinstance(schedule, CompiledSchedule):
        if schedule.n != n:
            raise SimulationError(
                f"schedule over Π{schedule.n} cannot drive a simulator over Π{n}"
            )
        steps = schedule.steps
        budget = len(steps) if max_steps is None else min(max_steps, len(steps))
        return iter(steps), budget
    if isinstance(schedule, Schedule):
        if schedule.n != n:
            raise SimulationError(
                f"schedule over Π{schedule.n} cannot drive a simulator over Π{n}"
            )
        budget = len(schedule) if max_steps is None else min(max_steps, len(schedule))
        return iter(schedule.steps), budget
    if isinstance(schedule, InfiniteSchedule):
        if schedule.n != n:
            raise SimulationError(
                f"schedule over Π{schedule.n} cannot drive a simulator over Π{n}"
            )
        if max_steps is None:
            raise SimulationError("an unbounded schedule needs an explicit max_steps")
        return schedule.iter_steps(), max_steps
    if _is_step_array(schedule):
        budget = len(schedule) if max_steps is None else min(max_steps, len(schedule))
        return iter(schedule), budget
    if max_steps is None:
        materialized = list(schedule)
        return iter(materialized), len(materialized)
    return iter(schedule), max_steps


def check_observer_capabilities(entries) -> None:
    """Reject ``"every_step"`` observers, which the bare loop would under-sample."""
    blocking = [entry for entry in entries if entry.capability != ON_PUBLISH]
    if blocking:
        names = ", ".join(
            getattr(entry.observer, "__name__", None) or repr(entry.observer)
            for entry in blocking
        )
        raise SimulationError(
            "execution policy 'fast' samples observers only on output "
            f"publication, but {len(blocking)} attached observer(s) declare the "
            f"'{EVERY_STEP}' capability: {names}. Run under the instrumented "
            "policy (Simulator.run) instead, or register the observer with "
            "add_observer(observer, capability='on_publish') if it only records "
            "output changes."
        )


def watched_keys(entries) -> Optional[Tuple[str, ...]]:
    """The output keys the attached observers read, or ``None`` for every key.

    One observer that names no keys (``ObserverEntry.keys is None``) reads
    them all, so it makes every publication count.
    """
    keys = set()
    for entry in entries:
        if entry.keys is None:
            return None
        keys.update(entry.keys)
    return tuple(sorted(keys))


def published_since(automaton, since: int, watched: Optional[Tuple[str, ...]]) -> bool:
    """Whether the bare loop samples ``automaton``'s process now.

    The key-scoped sampling rule, called on steps where the process's
    ``outputs_version`` moved since ``since``, its value at the previous
    check.  A negative ``since`` marks the process's first sampled step of
    the run, which always samples; otherwise the step samples when some key
    in ``watched`` (``None``: any key) was published after ``since``.
    Outputs change only through publication, so observers that record
    changes of the keys they read see the same changes at the same steps as
    under every-step sampling.
    """
    if since < 0 or watched is None:
        return True
    versions = automaton.output_versions
    for key in watched:
        if versions.get(key, 0) > since:
            return True
    return False


def bind_collect(operation: "Operation", registers: "RegisterFile") -> BoundCollectOp:
    """A validated collect in its slot-bound form.

    An unbound :class:`~repro.runtime.automaton.CollectOp` is bound on the
    fly, so it resolves (and lazily creates) all of its registers at its
    first step.
    """
    if isinstance(operation, BoundCollectOp):
        return operation
    return operation.bind(registers)


def execute(
    simulator: "Simulator",
    schedule: "ScheduleSource",
    max_steps: Optional[int] = None,
) -> "RunResult":
    """Drive ``simulator`` over ``schedule`` in the bare loop (:meth:`Simulator.run_fast`).

    Executes exactly the steps :meth:`Simulator.run` executes for the same
    ``(schedule, max_steps)``, with the same register operations, halting
    behaviour, final outputs and step counts; it records no trace and samples
    only ``"on_publish"`` observers (see :func:`check_observer_capabilities`).
    """
    step_iter, budget = normalize_source(simulator.n, schedule, max_steps)
    entries = simulator.observer_entries()
    check_observer_capabilities(entries)
    if isinstance(schedule, CompiledSchedule) and budget == len(schedule.steps):
        # The whole buffer is the budget: iterate the array itself and
        # credit per-process step counts in bulk from the shared tally.
        return _execute_bare(simulator, schedule.steps, schedule.step_counts(), entries)
    if _is_step_array(schedule) and budget == len(schedule):
        # A raw step array (a segment of a buffer) that is the budget
        # goes into the loop as it is, tallied there, not copied.
        return _execute_bare(simulator, schedule, None, entries)
    return _execute_bare(simulator, islice(step_iter, budget), None, entries)


def _is_step_array(schedule: Any) -> bool:
    """Whether ``schedule`` is an ``array('i')``, the step-buffer format."""
    return isinstance(schedule, array) and schedule.typecode == "i"


def _execute_bare(
    simulator: "Simulator",
    buffer: Iterable[ProcessId],
    counts: Optional[Dict[ProcessId, int]] = None,
    entries: Sequence["ObserverEntry"] = (),
) -> "RunResult":
    """The bare loop: the single no-instrumentation step body.

    ``buffer`` holds exactly the budgeted steps.  With ``counts`` given it is
    a whole :class:`CompiledSchedule` array with its cached
    :meth:`~CompiledSchedule.step_counts` tally, already known to hold only
    pids in ``1..n``.  With ``counts=None`` the buffer is any step source:
    it is materialized into a flat ``array('i')`` and tallied once with
    :func:`~repro.core.schedule.tally_steps` (C-level bytes scans over at
    most the budget), and the tally pass doubles as pid validation; a pid
    too large for the ``array('i')`` buffer takes the same unknown-pid
    path.  Raw iterables — unlike compiled buffers and
    :class:`Schedule` objects — are not validated at construction, and the
    loop's pid-indexed tables must never be indexed with an out-of-range pid
    (a negative id would alias a real process); when the buffer mentions an
    unknown pid, the valid prefix executes normally and the run fails at the
    offending step with the same error and exact accounting
    :meth:`Simulator.run` produces.

    Every buffered pid lying in ``1..n`` is what lets the loop keep its
    per-process tables as flat pid-indexed lists instead of dicts.  Because a
    completed run executes every buffered step, ``steps_taken`` is credited
    in bulk after the loop instead of being counted per step — the loop only
    keeps a plain running total so that an exception (a single-writer
    violation, an algorithm bug) still leaves exact accounting: on the error
    path the partial per-process tally is recounted from the consumed buffer
    prefix.

    Collects get the same treatment.  A process's in-flight collect is an
    iterator over the slots it has yet to read, and its values so far sit in
    ``pending``; a collect step is one ``next`` and one list append, with no
    generator resume.  The step that finds the iterator exhausted resumes the
    generator.  While a process collects, its ``sends`` entry is cleared, so
    the check for a collect sits on the cold side and steps of processes that
    are not collecting pay nothing for it.  Read counts are settled in bulk too: a collect's reads are
    tallied per op when it starts, and on exit the tally is credited and
    the unread rest of every in-flight collect is taken back out.

    ``entries`` attach ``"on_publish"`` observers, sampled on a
    process's first step of the run, then whenever it published a key some
    observer reads (:func:`published_since`).  The per-step test is only
    whether ``outputs_version`` moved; the key test runs on those steps.
    Only steps that resumed a generator can publish, so collect steps skip
    the check.  Observers see exact outputs and ``step_index``; the
    ``steps_taken`` and register read counts they could read are settled on
    exit.
    """
    from .simulator import RunResult  # local import: simulator imports this module

    n = simulator.n
    if counts is None:
        if not isinstance(buffer, array):
            steps = buffer if isinstance(buffer, list) else list(buffer)
            try:
                buffer = array("i", steps)
            except OverflowError:
                # A pid beyond the C int range cannot be buffered, but it is
                # an unknown pid like any other: run the valid prefix and fail
                # at the first bad step, as Simulator.run does.
                bad_index, bad_pid = first_step_outside(steps, n)
                _execute_bare(simulator, steps[:bad_index], None, entries)
                raise SimulationError(f"unknown process id {bad_pid}") from None
        counts = tally_steps(buffer, n)
        if counts is None:
            bad_index, bad_pid = first_step_outside(buffer, n)
            prefix = buffer[:bad_index]
            _execute_bare(simulator, prefix, tally_steps(prefix, n), entries)
            raise SimulationError(f"unknown process id {bad_pid}")
    registers = simulator.registers
    arena = registers.arena_view()
    slot_get = arena.slots.get
    values = arena.values
    read_counts = arena.read_counts
    write_counts = arena.write_counts
    writers = arena.writers
    resolve_slot = registers.resolve_slot
    registers_read = registers.read
    registers_write = registers.write
    strict = simulator.strict
    states = simulator._states
    halt = simulator._halt
    read_op, write_op = ReadOp, WriteOp
    bound_read_op, bound_write_op, bound_collect_op = BoundReadOp, BoundWriteOp, BoundCollectOp
    next_slot = next
    # pid-indexed tables (slot 0 unused): a list index beats a dict probe on
    # every step, and the tally/compiled-buffer validation guarantees every
    # buffered pid is a real index.
    sends: List[Optional[Callable[[Any], Any]]] = [None] * (n + 1)
    pending: List[Any] = [None] * (n + 1)
    collect_reads: List[Optional[Iterator[int]]] = [None] * (n + 1)
    #: Collects started in this run, per bound op: each owes its slots a read.
    started_collects: Dict[BoundCollectOp, int] = {}
    for pid, state in states.items():
        # A collect carried in from an earlier segment takes the cold path
        # on its first step here, which arms these tables.
        if not state.halted and state.started and state.collect_reads is None:
            sends[pid] = state.generator.send
            pending[pid] = state.pending_result
    observers = [entry.observer for entry in entries]
    watched = watched_keys(entries)
    observed = bool(observers)
    automata = [None] + [states[pid].automaton for pid in range(1, n + 1)]
    last_versions = [-1] * (n + 1)
    start_index = simulator._step_index
    executed = 0

    def notify(pid: ProcessId, step_index: int) -> None:
        automaton = automata[pid]
        since = last_versions[pid]
        last_versions[pid] = automaton.outputs_version
        if published_since(automaton, since, watched):
            simulator._step_index = step_index
            for observer in observers:
                observer(step_index, pid, simulator)

    try:
        for pid in buffer:
            send = sends[pid]
            if send is not None:
                send_value = pending[pid]
            else:
                reads = collect_reads[pid]
                if reads:
                    # Mid-collect (the generator's send is parked): one read.
                    slot = next_slot(reads, None)
                    if slot is not None:
                        pending[pid].append(values[slot])
                        executed += 1
                        continue
                    # Every read done: this step resumes with the values.
                    collect_reads[pid] = None
                    send = sends[pid] = states[pid].generator.send
                    send_value = pending[pid]
                else:
                    # Cold paths: a process's first step, halted processes
                    # and a collect carried in from an earlier segment.
                    state = states[pid]
                    if state.halted:
                        if strict:
                            raise SimulationError(
                                f"process {pid} was scheduled after its program returned"
                            )
                        executed += 1
                        if observed and last_versions[pid] != automata[pid].outputs_version:
                            notify(pid, start_index + executed)
                        continue
                    if state.started:
                        # Arm the carried collect, crediting its unread rest
                        # up front like a collect started here.
                        rest = list(state.collect_reads)
                        for slot in rest:
                            read_counts[slot] += 1
                        state.collect_reads = None
                        pending[pid] = state.pending_result
                        if rest:
                            collect_reads[pid] = reads = iter(rest)
                            pending[pid].append(values[next_slot(reads)])
                            executed += 1
                            if observed and last_versions[pid] != automata[pid].outputs_version:
                                notify(pid, start_index + executed)
                            continue
                        send = sends[pid] = state.generator.send
                        send_value = pending[pid]
                    else:
                        send = sends[pid] = simulator._start_program(state).send
                        send_value = None
            try:
                op = send(send_value)
            except StopIteration as stop:
                state = states[pid]
                state.pending_result = pending[pid]
                pending[pid] = None
                halt(state, stop)
                sends[pid] = None
            else:
                op_type = type(op)
                if op_type is read_op:
                    slot = slot_get(op.register)
                    if slot is None:
                        slot = resolve_slot(op.register)
                    read_counts[slot] += 1
                    pending[pid] = values[slot]
                elif op_type is write_op:
                    slot = slot_get(op.register)
                    if slot is None:
                        slot = resolve_slot(op.register)
                    owner = writers[slot]
                    if owner is not None and owner != pid:
                        arena.write(slot, op.value, pid)  # raises the canonical error
                    write_counts[slot] += 1
                    values[slot] = op.value
                    pending[pid] = None
                elif op_type is bound_read_op:
                    slot = op.slot
                    read_counts[slot] += 1
                    pending[pid] = values[slot]
                elif op_type is bound_write_op:
                    slot = op.slot
                    owner = writers[slot]
                    if owner is not None and owner != pid:
                        arena.write(slot, op.value, pid)  # raises the canonical error
                    write_counts[slot] += 1
                    values[slot] = op.value
                    pending[pid] = None
                elif op_type is bound_collect_op:
                    started_collects[op] = started_collects.get(op, 0) + 1
                    collect_reads[pid] = reads = iter(op.slots)
                    pending[pid] = [values[next_slot(reads)]]
                    sends[pid] = None
                else:
                    operation = validate_operation(op)
                    if is_collect_operation(operation):
                        bound = bind_collect(operation, registers)
                        started_collects[bound] = started_collects.get(bound, 0) + 1
                        collect_reads[pid] = reads = iter(bound.slots)
                        pending[pid] = [values[next_slot(reads)]]
                        sends[pid] = None
                    elif is_read_operation(operation):
                        pending[pid] = registers_read(operation.register, reader=pid)
                    else:
                        registers_write(operation.register, operation.value, writer=pid)
                        pending[pid] = None
            executed += 1
            if observed and last_versions[pid] != automata[pid].outputs_version:
                notify(pid, start_index + executed)
    finally:
        if executed == len(buffer):
            for pid, count in counts.items():
                if count:
                    states[pid].steps_taken += count
        else:
            for pid in buffer[:executed]:
                states[pid].steps_taken += 1
        for bound, count in started_collects.items():
            for slot in bound.slots:
                read_counts[slot] += count
        for pid in range(1, n + 1):
            reads = collect_reads[pid]
            if sends[pid] is not None or reads is not None:
                state = states[pid]
                state.pending_result = pending[pid]
                if reads is not None:
                    rest = list(reads)
                    for slot in rest:
                        read_counts[slot] -= 1
                    state.collect_reads = iter(rest) if rest else None
        simulator._step_index = start_index + executed
    return RunResult(
        executed_schedule=Schedule(steps=(), n=n),
        steps_executed=executed,
        stopped_early=False,
        halted_processes=simulator.halted_processes(),
        outputs={pid: dict(state.automaton.outputs) for pid, state in states.items()},
    )

