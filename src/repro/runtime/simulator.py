"""The discrete-event shared-memory simulator that executes runs.

A *run* in the paper is ``(I, S, A)``: an initial configuration, a schedule
and an algorithm.  The simulator reproduces this literally: it owns the
register file (the configuration of Ξ), one :class:`ProcessAutomaton` per
process (the configuration of the processes), and consumes a schedule —
finite, or an unbounded iterator — advancing the scheduled process by exactly
one shared-memory operation per step.

That rule is :meth:`Simulator.step`, and :meth:`Simulator.run` is the
reference run: one :meth:`~Simulator.step` per scheduled pid, the trace
recorded, every observer sampled after every step and an optional stop
condition checked after each.  :meth:`Simulator.run_fast` executes the same
steps in the kernel's bare loop (:mod:`repro.runtime.kernel`), which records
no trace and samples observers only when the stepped process published.

Instrumentation: observers can be attached to sample process outputs after
steps; the analysis layer uses this to measure stabilization times of
failure-detector outputs and decision steps of agreement algorithms without
perturbing the algorithms themselves.  Each observer declares a *capability*
— ``"every_step"`` (must see every step) or ``"on_publish"`` (only needs the
steps on which the process published an output) — and :meth:`Simulator.run_fast`
refuses to run with an observer it would under-sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from ..core.schedule import CompiledSchedule, InfiniteSchedule, Schedule
from ..errors import SimulationError
from ..memory.registers import RegisterFile
from ..types import ProcessId
from .automaton import (
    ProcessAutomaton,
    Program,
    is_collect_operation,
    is_read_operation,
    validate_operation,
)
from .kernel import (
    EVERY_STEP,
    OBSERVER_CAPABILITIES,
    bind_collect,
    execute,
    normalize_source,
)

#: Anything the simulator can consume as a step source.
ScheduleSource = Union[Schedule, InfiniteSchedule, CompiledSchedule, Iterable[ProcessId]]

#: Observer signature: (step_index, pid, simulator) -> None, called after the step.
Observer = Callable[[int, ProcessId, "Simulator"], None]

#: Stop predicate signature: (step_index, simulator) -> bool, checked after each step.
StopCondition = Callable[[int, "Simulator"], bool]

@dataclass(slots=True)
class ProcessState:
    """Book-keeping for one process inside the simulator."""

    automaton: ProcessAutomaton
    generator: Optional[Program] = None
    started: bool = False
    halted: bool = False
    halt_value: Any = None
    steps_taken: int = 0
    pending_result: Any = None
    #: The slots the process's in-flight collect has yet to read (the values
    #: read so far are ``pending_result``); ``None`` between operations.
    collect_reads: Optional[Iterator[int]] = None


class ProcessSnapshot(NamedTuple):
    """One process's part of a :class:`SimulatorSnapshot`.

    ``program`` is the automaton's :meth:`~repro.runtime.automaton.ProcessAutomaton.program_state`
    value for a running program (``None`` when the program has not started
    or has returned), ``collect_rest`` the slots an in-flight collect has yet
    to read, and ``outputs`` the automaton's
    :meth:`~repro.runtime.automaton.ProcessAutomaton.snapshot_outputs` value.
    """

    started: bool
    halted: bool
    halt_value: Any
    steps_taken: int
    pending_result: Any
    collect_rest: Optional[Tuple[int, ...]]
    program: Any
    outputs: Any


@dataclass(frozen=True)
class SimulatorSnapshot:
    """Everything a run can change, as :meth:`Simulator.snapshot` saw it.

    Registers (values, read/write counts, owners), every process's state and
    published outputs with their versions, the attached observers with each
    one's own snapshot (a tracker's change-list length and last-seen
    values), the recorded trace and the step index.
    """

    step_index: int
    trace: Tuple[ProcessId, ...]
    registers: Any
    processes: Dict[ProcessId, ProcessSnapshot]
    observers: Tuple["ObserverEntry", ...]
    observer_states: Tuple[Any, ...]


@dataclass(frozen=True)
class ObserverEntry:
    """One attached observer with its declared capability and the keys it reads.

    ``keys`` is ``None`` when the observer may read any output key.
    """

    observer: Observer
    capability: str
    keys: Optional[Tuple[str, ...]] = None


@dataclass
class RunResult:
    """Outcome of driving the simulator over (a prefix of) a schedule.

    Attributes
    ----------
    executed_schedule:
        The steps this call executed, in order (useful when a stop condition
        cut the run short).  :meth:`Simulator.run_fast` records no trace and
        returns an empty schedule here while ``steps_executed`` stays exact.
    steps_executed:
        Number of steps executed.
    stopped_early:
        True when a stop condition ended the run before the step budget.
    halted_processes:
        Processes whose program returned (halted voluntarily).
    outputs:
        Final published outputs of every process (``pid -> dict``).
    """

    executed_schedule: Schedule
    steps_executed: int
    stopped_early: bool
    halted_processes: List[ProcessId]
    outputs: Dict[ProcessId, Dict[str, Any]]


class Simulator:
    """Executes an algorithm (a set of automata) under a schedule.

    Parameters
    ----------
    n:
        Number of processes.
    automata:
        Mapping from process id to its automaton.  Every process in ``1..n``
        must be present; the paper's model has no "absent" processes, only
        processes that the schedule never picks.
    registers:
        Optional pre-populated register file (initial configuration of Ξ).
    strict:
        When true, scheduling a process whose program already returned raises
        :class:`SimulationError`; when false (default) such steps are recorded
        as no-ops, which matches the common convention that a decided process
        keeps taking skip steps.
    prebind:
        When true (default), every automaton's
        :meth:`~repro.runtime.automaton.ProcessAutomaton.prebind` hook is
        invoked with this simulator's register file before any program runs,
        so automata with preallocated op tables yield slot-bound operations.
        Pass false to force the name-addressed dispatch path (the two are
        observably identical; the conformance lane table pins that).
    """

    def __init__(
        self,
        n: int,
        automata: Dict[ProcessId, ProcessAutomaton],
        registers: Optional[RegisterFile] = None,
        strict: bool = False,
        prebind: bool = True,
    ) -> None:
        if n < 1:
            raise SimulationError(f"simulator needs n >= 1 processes, got {n}")
        missing = [p for p in range(1, n + 1) if p not in automata]
        if missing:
            raise SimulationError(f"missing automata for processes {missing}")
        extra = [p for p in automata if not 1 <= p <= n]
        if extra:
            raise SimulationError(f"automata supplied for unknown processes {extra}")
        self.n = n
        self.registers = registers if registers is not None else RegisterFile()
        self.strict = strict
        self._states: Dict[ProcessId, ProcessState] = {
            pid: ProcessState(automaton=automaton) for pid, automaton in automata.items()
        }
        self._observers: List[ObserverEntry] = []
        self._trace: List[ProcessId] = []
        self._step_index = 0
        if prebind:
            for state in self._states.values():
                automaton = state.automaton
                automaton.prebind(self.registers)
                if type(automaton).prebind is not ProcessAutomaton.prebind:
                    # Only automata that actually bind tables are marked; the
                    # marker lets _start_program refuse to run a program whose
                    # op tables carry another simulator's slots.
                    automaton._prebound_registers = self.registers
        else:
            # Keep the switch honest for reused automata: tables bound to an
            # earlier simulator's register file must not leak stale slots
            # into a run that asked for name-addressed dispatch.
            for state in self._states.values():
                state.automaton.unbind()
                state.automaton._prebound_registers = None
        #: The state construction left, which :meth:`rewind` restores.
        self._construction = self.snapshot()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def step_index(self) -> int:
        """Number of steps executed so far across all ``run`` calls."""
        return self._step_index

    def automaton(self, pid: ProcessId) -> ProcessAutomaton:
        """The automaton of process ``pid``."""
        return self._state(pid).automaton

    def output_of(self, pid: ProcessId, key: str, default: Any = None) -> Any:
        """Published output ``key`` of process ``pid`` (no step cost)."""
        # Inlined _state and output: every OutputTracker sample lands here.
        state = self._states.get(pid)
        if state is None:
            raise SimulationError(f"unknown process id {pid}")
        return state.automaton.outputs.get(key, default)

    def outputs(self, key: str) -> Dict[ProcessId, Any]:
        """The published output ``key`` of every process."""
        return {pid: state.automaton.output(key) for pid, state in self._states.items()}

    def steps_taken(self, pid: ProcessId) -> int:
        """Number of steps process ``pid`` has executed."""
        return self._state(pid).steps_taken

    def halted(self, pid: ProcessId) -> bool:
        """Whether process ``pid``'s program returned."""
        return self._state(pid).halted

    def halted_processes(self) -> List[ProcessId]:
        """All processes whose programs have returned, in id order."""
        return sorted(pid for pid, state in self._states.items() if state.halted)

    def trace(self) -> Schedule:
        """The schedule recorded so far (all ``run`` and ``step`` calls concatenated).

        :meth:`run_fast` contributes nothing here.
        """
        return Schedule(steps=tuple(self._trace), n=self.n)

    def add_observer(self, observer: Observer, capability: Optional[str] = None) -> None:
        """Attach an observer, with its sampling capability.

        ``capability`` is ``"every_step"`` (the observer must see every
        executed step) or ``"on_publish"`` (it only needs the steps on which
        the stepped process published an output — true of change-recording
        observers like :class:`~repro.runtime.observers.OutputTracker`).
        When omitted, the observer's ``observer_capability`` attribute is
        consulted, defaulting to the conservative ``"every_step"``.
        :meth:`run_fast` enforces the declaration: running it with an
        ``"every_step"`` observer attached raises :class:`SimulationError`
        instead of silently under-sampling.

        The observer's ``observed_keys`` attribute, when it has one, names
        the output keys it reads; one that names none (or no attribute) reads
        every key.  :meth:`run_fast` samples a process only on steps that
        published a key some observer reads.
        """
        if capability is None:
            capability = getattr(observer, "observer_capability", EVERY_STEP)
        if capability not in OBSERVER_CAPABILITIES:
            raise SimulationError(
                f"unknown observer capability {capability!r}; "
                f"expected one of {OBSERVER_CAPABILITIES}"
            )
        keys = tuple(getattr(observer, "observed_keys", None) or ()) or None
        self._observers.append(
            ObserverEntry(observer=observer, capability=capability, keys=keys)
        )

    def observer_entries(self) -> Tuple[ObserverEntry, ...]:
        """The attached observers with their capabilities (kernel-facing)."""
        return tuple(self._observers)

    @property
    def resumable(self) -> bool:
        """Whether :meth:`snapshot` works mid-run: every automaton has the resume hook."""
        return all(state.automaton.resumable for state in self._states.values())

    def snapshot(self) -> SimulatorSnapshot:
        """The simulator's whole run state, for :meth:`restore`.

        Captures register values with their read/write counts and owners,
        every process's :class:`ProcessState` (pending result, the slots an
        in-flight collect has yet to read, steps taken, halting) together
        with its program's explicit run state
        (:meth:`~repro.runtime.automaton.ProcessAutomaton.program_state`),
        every automaton's outputs with their versions, the attached observers
        with their own snapshots, the trace and the step index.  Running the
        rest of a schedule after :meth:`restore` then equals running it on
        without the round trip.  Raises :class:`SimulationError` when a
        running program's automaton has no resume hook (see
        :attr:`resumable`) or an attached observer has no ``snapshot``.
        """
        processes: Dict[ProcessId, ProcessSnapshot] = {}
        for pid, state in self._states.items():
            automaton = state.automaton
            program = None
            if state.generator is not None:
                program = automaton.program_state(state.generator)
                if program is None:
                    raise SimulationError(
                        f"{automaton.describe()} cannot snapshot its running program: "
                        "its automaton has no program_state/resume_program hook"
                    )
            rest = None
            if state.collect_reads is not None:
                rest = tuple(state.collect_reads)
                state.collect_reads = iter(rest)
            pending = state.pending_result
            processes[pid] = ProcessSnapshot(
                started=state.started,
                halted=state.halted,
                halt_value=state.halt_value,
                steps_taken=state.steps_taken,
                pending_result=list(pending) if type(pending) is list else pending,
                collect_rest=rest,
                program=program,
                outputs=automaton.snapshot_outputs(),
            )
        observers = tuple(self._observers)
        states = []
        for entry in observers:
            take = getattr(entry.observer, "snapshot", None)
            if take is None:
                raise SimulationError(
                    f"observer {entry.observer!r} has no snapshot()/restore(), so a "
                    "simulator carrying it cannot be snapshotted"
                )
            states.append(take())
        return SimulatorSnapshot(
            step_index=self._step_index,
            trace=tuple(self._trace),
            registers=self.registers.snapshot(),
            processes=processes,
            observers=observers,
            observer_states=tuple(states),
        )

    def restore(self, snapshot: SimulatorSnapshot) -> None:
        """Return to the state ``snapshot`` captured (see :meth:`snapshot`).

        Each running program is rebuilt from its explicit run state
        (:meth:`~repro.runtime.automaton.ProcessAutomaton.resume_program`),
        suspended at the yield it was at; registers go back in place, so
        operations bound to their slots stay valid.  The observers attached
        at the snapshot are attached again, each restored from its own
        snapshot.  A snapshot can be restored any number of times.
        """
        for pid, saved in snapshot.processes.items():
            automaton = self._states[pid].automaton
            automaton.restore_outputs(saved.outputs)
            pending = saved.pending_result
            state = ProcessState(
                automaton=automaton,
                started=saved.started,
                halted=saved.halted,
                halt_value=saved.halt_value,
                steps_taken=saved.steps_taken,
                pending_result=list(pending) if type(pending) is list else pending,
                collect_reads=None if saved.collect_rest is None else iter(saved.collect_rest),
            )
            if saved.program is not None:
                self._check_binding(automaton)
                state.generator = automaton.resume_program(saved.program)
            self._states[pid] = state
        self.registers.restore(snapshot.registers)
        self._observers[:] = snapshot.observers
        for entry, saved_state in zip(snapshot.observers, snapshot.observer_states):
            entry.observer.restore(saved_state)
        self._trace[:] = snapshot.trace
        self._step_index = snapshot.step_index

    def rewind(self) -> None:
        """Return to the state construction left, keeping what it built.

        A restore of the snapshot construction took (:meth:`restore`): every
        process is unstarted with no steps taken, every automaton holds the
        outputs construction published, every register holds its
        construction-time value, owner and counters (slots interned since go
        back to their initial state), the trace and step index are empty,
        and no observer is attached.  What construction paid for stays: the
        register file with its slots, the automata and their pre-bound
        operation tables.  Replaying many schedules on one replica this way
        skips that cost per run.
        """
        self.restore(self._construction)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, pid: ProcessId) -> None:
        """Execute one step of process ``pid`` (one shared-memory operation).

        The model's one rule, and the body of the reference run
        (:meth:`run`).  A process in the middle of a collect executes the
        collect's next read; a halted process's step is a recorded no-op (or
        a :class:`SimulationError` when ``strict``).  Every other operation is
        validated and executed through the register file by name.  The step
        is appended to the trace and every attached observer runs after it.
        """
        state = self._states.get(pid)
        if state is None:
            raise SimulationError(f"unknown process id {pid}")
        if state.halted:
            if self.strict:
                raise SimulationError(
                    f"process {pid} was scheduled after its program returned"
                )
        else:
            reads = state.collect_reads
            slot = None if reads is None else next(reads, None)
            if slot is not None:
                # Mid-collect: its next read, without resuming the program.
                state.pending_result.append(self.registers.arena_view().read(slot))
            else:
                # Resume the program (with the values a finished collect read).
                state.collect_reads = None
                if state.started:
                    generator = state.generator
                    send_value = state.pending_result
                else:
                    generator = self._start_program(state)
                    send_value = None
                try:
                    op = generator.send(send_value)
                except StopIteration as stop:
                    self._halt(state, stop)
                else:
                    operation = validate_operation(op)
                    registers = self.registers
                    if is_collect_operation(operation):
                        # The first read; the others are the process's next steps.
                        reads = iter(bind_collect(operation, registers).slots)
                        state.pending_result = [registers.arena_view().read(next(reads))]
                        state.collect_reads = reads
                    elif is_read_operation(operation):
                        state.pending_result = registers.read(operation.register, reader=pid)
                    else:
                        registers.write(operation.register, operation.value, writer=pid)
                        state.pending_result = None
        state.steps_taken += 1
        self._trace.append(pid)
        step_index = self._step_index = self._step_index + 1
        for entry in self._observers:
            entry.observer(step_index, pid, self)

    def run(
        self,
        schedule: ScheduleSource,
        max_steps: Optional[int] = None,
        stop_condition: Optional[StopCondition] = None,
    ) -> RunResult:
        """Drive the simulator over a schedule, one :meth:`step` per scheduled pid.

        Parameters
        ----------
        schedule:
            A finite :class:`Schedule`, an :class:`InfiniteSchedule`, or any
            iterable of process ids.
        max_steps:
            Step budget.  Mandatory for unbounded sources; optional for finite
            schedules (defaults to their length).
        stop_condition:
            Checked after every step; when it returns true the run stops early.

        Returns a :class:`RunResult` whose ``executed_schedule`` holds this
        call's steps (:meth:`trace` holds every call's).
        """
        step_iter, budget = normalize_source(self.n, schedule, max_steps)
        trace = self._trace
        start = len(trace)
        step = self.step
        stopped_early = False
        for pid in islice(step_iter, budget):
            step(pid)
            if stop_condition is not None and stop_condition(self._step_index, self):
                stopped_early = True
                break
        executed = tuple(trace[start:])
        return RunResult(
            executed_schedule=Schedule(steps=executed, n=self.n),
            steps_executed=len(executed),
            stopped_early=stopped_early,
            halted_processes=self.halted_processes(),
            outputs={pid: dict(state.automaton.outputs) for pid, state in self._states.items()},
        )

    def run_fast(self, schedule: ScheduleSource, max_steps: Optional[int] = None) -> RunResult:
        """Drive the simulator over a schedule in the kernel's bare loop.

        Executes exactly the same steps as :meth:`run` — same register
        operations, same halting behaviour, same final outputs — but sheds the
        per-step bookkeeping that dominates long experiment runs:

        * no trace is recorded: ``executed_schedule`` comes back empty and
          :meth:`trace` does not grow, while ``steps_executed`` stays exact;
        * observers are sampled only on steps in which the stepped process
          *published* an output some observer reads (plus each process's
          first sampled step), detected via
          :attr:`~repro.runtime.automaton.ProcessAutomaton.outputs_version`
          and the per-key
          :attr:`~repro.runtime.automaton.ProcessAutomaton.output_versions`.
          Change-recording observers such as
          :class:`~repro.runtime.observers.OutputTracker` therefore record
          byte-identical change sequences.  Observers that declared the
          ``"every_step"`` capability make it raise :class:`SimulationError`
          up front.
        """
        return execute(self, schedule, max_steps)

    # ------------------------------------------------------------------
    # Internals (shared with the kernel)
    # ------------------------------------------------------------------
    def _state(self, pid: ProcessId) -> ProcessState:
        state = self._states.get(pid)
        if state is None:
            raise SimulationError(f"unknown process id {pid}")
        return state

    def _start_program(self, state: ProcessState) -> Program:
        """Create a process's program generator (its first scheduled step).

        Refuses to start an automaton whose op tables were pre-bound to a
        *different* simulator's register file — constructing a second
        simulator over the same automata rebinds them, and slot-carrying ops
        dispatched against the wrong arena would silently alias registers.
        The loud error replaces that corruption; rebinding (constructing this
        simulator last, or calling ``automaton.prebind(simulator.registers)``)
        or ``prebind=False`` both resolve it.
        """
        automaton = state.automaton
        self._check_binding(automaton)
        generator = automaton.program(automaton.context())
        state.generator = generator
        state.started = True
        return generator

    def _check_binding(self, automaton: ProcessAutomaton) -> None:
        bound = automaton._prebound_registers
        if bound is not None and bound is not self.registers:
            raise SimulationError(
                f"{automaton.describe()} is pre-bound to a different simulator's "
                "register file (its op tables carry that file's slots); rebind it "
                "with automaton.prebind(this simulator's registers), construct "
                "this simulator after the other one, or pass prebind=False"
            )

    def _halt(self, state: ProcessState, stop: StopIteration) -> None:
        state.halted = True
        state.generator = None
        state.halt_value = stop.value


def build_simulator(
    n: int,
    automaton_factory: Callable[[ProcessId], ProcessAutomaton],
    registers: Optional[RegisterFile] = None,
    strict: bool = False,
    prebind: bool = True,
) -> Simulator:
    """Convenience constructor: build one automaton per process from a factory."""
    automata = {pid: automaton_factory(pid) for pid in range(1, n + 1)}
    return Simulator(
        n=n, automata=automata, registers=registers, strict=strict, prebind=prebind
    )
