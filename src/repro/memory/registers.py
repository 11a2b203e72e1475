"""Atomic read/write shared registers — the paper's communication substrate Ξ.

The paper's system model is a read/write shared-memory system: in each step a
process reads or writes one shared register and changes state.  This module
provides the register file used by the simulator:

* :class:`RegisterArena` — slot-addressed flat storage.  Every register name
  is *interned* to an integer slot on declaration or first resolve; values,
  read/write counts and single-writer owners live in flat parallel lists
  (struct-of-arrays).  Execution engines address registers by slot —
  ``values[slot]`` instead of a tuple-keyed dict probe — which is what makes
  pre-bound operations (:meth:`repro.runtime.automaton.ReadOp.bind`) cheap to
  dispatch.
* :class:`Register` — one atomic multi-reader register, optionally restricted
  to a single writer (the paper's algorithms only ever use single-writer
  registers such as ``Heartbeat[p]`` and ``Counter[A, p]``, and single-writer
  discipline catches a whole class of algorithm bugs, so the restriction is on
  by default for owned registers).  A register is a named window onto one
  arena slot: mutating it and addressing the slot directly are the same
  operation on the same storage.
* :class:`RegisterFile` — a namespace of registers addressed by arbitrary
  hashable names.  Registers are created lazily with an initial value, which
  mirrors the paper's "possibly infinite set Ξ of shared registers".

Atomicity is trivially guaranteed because the simulator executes exactly one
register operation per scheduled step; the classes below only enforce the
access discipline and record operation counts for the analysis layer.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, Hashable, Iterator, List, Mapping, Optional, Tuple

from ..errors import ConfigurationError, RegisterError
from ..types import ProcessId

#: Register names can be any hashable value; algorithms typically use tuples
#: such as ``("Heartbeat", p)`` or ``("Counter", A, q)``.
RegisterName = Hashable


class RegisterArena:
    """Slot-addressed flat storage for a register namespace (struct-of-arrays).

    The arena is the single source of truth for register state.  Interning a
    name (:meth:`intern`) assigns it the next integer slot; the register's
    value, operation counters and single-writer owner then live at that index
    of four parallel lists.  Hot loops hold direct references to the lists and
    dispatch by slot; name-addressed callers go through the ``slots`` dict
    (one C-level probe) or through the :class:`Register` /
    :class:`RegisterFile` façades, which are thin windows onto the same lists.

    Attributes
    ----------
    slots:
        The interning map ``name -> slot``.  Treat as read-only; interning
        goes through :meth:`intern` so the parallel lists stay in step.
    names:
        Slot-indexed register names (the inverse of ``slots``).
    values / read_counts / write_counts / writers:
        Slot-indexed register state.  Mutating ``values[slot]`` *is* writing
        the register — there is no other copy.
    """

    __slots__ = ("slots", "names", "values", "read_counts", "write_counts", "writers")

    def __init__(self) -> None:
        self.slots: Dict[RegisterName, int] = {}
        self.names: List[RegisterName] = []
        self.values: List[Any] = []
        self.read_counts: List[int] = []
        self.write_counts: List[int] = []
        self.writers: List[Optional[ProcessId]] = []

    def __len__(self) -> int:
        return len(self.names)

    def intern(
        self,
        name: RegisterName,
        value: Any = None,
        writer: Optional[ProcessId] = None,
    ) -> int:
        """The slot of ``name``, creating it with the given initial state if new."""
        slot = self.slots.get(name)
        if slot is None:
            slot = len(self.names)
            self.slots[name] = slot
            self.names.append(name)
            self.values.append(value)
            self.read_counts.append(0)
            self.write_counts.append(0)
            self.writers.append(writer)
        return slot

    def reset(self, slot: int, value: Any, writer: Optional[ProcessId]) -> None:
        """Re-initialize a slot in place (re-declaration): fresh value, counters, owner."""
        self.values[slot] = value
        self.writers[slot] = writer
        self.read_counts[slot] = 0
        self.write_counts[slot] = 0

    def read(self, slot: int) -> Any:
        """Atomically read the slot's current value (counted)."""
        self.read_counts[slot] += 1
        return self.values[slot]

    def write(self, slot: int, value: Any, writer: Optional[ProcessId] = None) -> None:
        """Atomically write the slot (counted); enforces single-writer discipline."""
        owner = self.writers[slot]
        if owner is not None and writer is not None and writer != owner:
            raise RegisterError(
                f"register {self.names[slot]!r} is owned by process {owner}; "
                f"process {writer} attempted to write it"
            )
        self.write_counts[slot] += 1
        self.values[slot] = value


class Register:
    """One atomic shared register: a named window onto one arena slot.

    Attributes
    ----------
    name:
        The register's name within its :class:`RegisterFile`.
    value:
        Current value.  Any Python object is allowed; algorithms in this
        library only store immutable values (ints, tuples, frozensets).
    writer:
        When not ``None``, only this process id may write the register
        (single-writer multi-reader discipline).
    write_count / read_count:
        Operation counters used by the analysis layer and by the substrate
        microbenchmarks (experiment A3).

    All attributes are live views of the owning arena's parallel lists, so a
    register object and slot-addressed hot-loop code always agree.  A register
    constructed standalone (outside any file) owns a private one-slot arena,
    which keeps the class usable as the plain value container it used to be.
    """

    __slots__ = ("name", "slot", "arena")

    def __init__(
        self,
        name: RegisterName,
        value: Any = None,
        writer: Optional[ProcessId] = None,
        write_count: int = 0,
        read_count: int = 0,
        *,
        arena: Optional[RegisterArena] = None,
        slot: Optional[int] = None,
    ) -> None:
        self.name = name
        if arena is None:
            arena = RegisterArena()
            slot = arena.intern(name, value=value, writer=writer)
            arena.write_counts[slot] = write_count
            arena.read_counts[slot] = read_count
        else:
            if slot is None:
                raise ConfigurationError(
                    "Register(arena=...) needs an explicit slot= into that arena"
                )
            if value is not None or writer is not None or write_count or read_count:
                raise ConfigurationError(
                    "an arena-backed register's state lives in its arena row; "
                    "do not pass value/writer/counts together with arena="
                )
        self.arena = arena
        self.slot = slot

    # ------------------------------------------------------------------
    # Live views of the arena row
    # ------------------------------------------------------------------
    @property
    def value(self) -> Any:
        return self.arena.values[self.slot]

    @value.setter
    def value(self, new_value: Any) -> None:
        self.arena.values[self.slot] = new_value

    @property
    def writer(self) -> Optional[ProcessId]:
        return self.arena.writers[self.slot]

    @writer.setter
    def writer(self, new_writer: Optional[ProcessId]) -> None:
        self.arena.writers[self.slot] = new_writer

    @property
    def read_count(self) -> int:
        return self.arena.read_counts[self.slot]

    @read_count.setter
    def read_count(self, count: int) -> None:
        self.arena.read_counts[self.slot] = count

    @property
    def write_count(self) -> int:
        return self.arena.write_counts[self.slot]

    @write_count.setter
    def write_count(self, count: int) -> None:
        self.arena.write_counts[self.slot] = count

    def __repr__(self) -> str:
        return (
            f"Register(name={self.name!r}, value={self.value!r}, "
            f"writer={self.writer!r}, write_count={self.write_count}, "
            f"read_count={self.read_count})"
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def read(self, reader: Optional[ProcessId] = None) -> Any:
        """Atomically read the register's current value."""
        return self.arena.read(self.slot)

    def write(self, value: Any, writer: Optional[ProcessId] = None) -> None:
        """Atomically write ``value``; enforces single-writer discipline if set."""
        self.arena.write(self.slot, value, writer)


class RegisterFile:
    """A lazily populated namespace of atomic registers.

    The file serves as the simulator's single source of truth for shared
    state.  Registers spring into existence on first access with the initial
    value registered via :meth:`declare` (or ``None`` when undeclared), which
    keeps algorithm code close to the paper's pseudocode where the shared
    registers are declared with initial values up front.

    Storage lives in a :class:`RegisterArena`; the file adds the naming layer
    (declaration defaults and owners, lazy creation) and hands out
    :class:`Register` windows for name-addressed callers.  Execution engines
    use :meth:`arena_view` and :meth:`resolve_slot` to address registers by
    integer slot instead.
    """

    def __init__(self) -> None:
        self._arena = RegisterArena()
        self._registers: Dict[RegisterName, Register] = {}
        self._registers_view: Mapping[RegisterName, Register] = MappingProxyType(
            self._registers
        )
        self._defaults: Dict[RegisterName, Any] = {}
        self._owners: Dict[RegisterName, ProcessId] = {}

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def declare(
        self,
        name: RegisterName,
        initial: Any = None,
        writer: Optional[ProcessId] = None,
    ) -> None:
        """Declare a register with an initial value and optional owner.

        Declaring an already-existing register re-initializes it *in place*
        (same slot, fresh value/counters/owner), which is how tests reset
        shared state between independent runs; operations already bound to
        the slot stay valid.
        """
        self._defaults[name] = initial
        if writer is not None:
            self._owners[name] = writer
        arena = self._arena
        slot = arena.slots.get(name)
        if slot is None:
            slot = arena.intern(name, value=initial, writer=writer)
        else:
            arena.reset(slot, value=initial, writer=writer)
        if name not in self._registers:
            self._registers[name] = Register(name, arena=arena, slot=slot)

    def declare_array(
        self,
        prefix: str,
        indices: Iterator[Hashable] | Tuple[Hashable, ...],
        initial: Any = None,
        owner_from_index: bool = False,
    ) -> None:
        """Declare a family of registers ``(prefix, index)`` with a shared initial value.

        When ``owner_from_index`` is true each index is interpreted as the
        owning process id (used for per-process registers like ``Heartbeat[p]``)
        and must therefore be an integer — a non-integer index cannot name a
        process, so it is rejected with :class:`ConfigurationError` rather
        than silently minting an unowned register that would dodge the
        single-writer discipline.
        """
        for index in indices:
            if owner_from_index:
                if not isinstance(index, int) or isinstance(index, bool):
                    raise ConfigurationError(
                        f"declare_array({prefix!r}, ..., owner_from_index=True) needs "
                        f"integer process-id indices, got {index!r}; pass "
                        "owner_from_index=False for non-process-indexed registers"
                    )
                writer: Optional[ProcessId] = index
            else:
                writer = None
            self.declare((prefix, index), initial=initial, writer=writer)

    def snapshot(self) -> Tuple[int, List[Any], List[int], List[int], List[Optional[ProcessId]]]:
        """Every interned register's value, counters and owner, as :meth:`restore` takes them."""
        arena = self._arena
        return (
            len(arena.names),
            list(arena.values),
            list(arena.read_counts),
            list(arena.write_counts),
            list(arena.writers),
        )

    def restore(
        self, saved: Tuple[int, List[Any], List[int], List[int], List[Optional[ProcessId]]]
    ) -> None:
        """Put every register back to the state :meth:`snapshot` saw, in place.

        Slots stay where they are, so operations bound to them stay valid.
        A slot interned after the snapshot stays interned and gets its
        declared initial value (``None`` when undeclared) and owner back,
        with both counters zeroed: the state a fresh access would create,
        which nothing can tell from the name never having been interned.
        """
        known, values, read_counts, write_counts, writers = saved
        arena = self._arena
        arena.values[:known] = values
        arena.read_counts[:known] = read_counts
        arena.write_counts[:known] = write_counts
        arena.writers[:known] = writers
        defaults = self._defaults
        owners = self._owners
        names = arena.names
        for slot in range(known, len(names)):
            name = names[slot]
            arena.reset(slot, value=defaults.get(name), writer=owners.get(name))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def resolve(self, name: RegisterName) -> Register:
        """The live :class:`Register` object for ``name``, created on first use.

        The returned object is a window onto the register's arena slot, so
        operating on it directly is exactly as authoritative as slot-addressed
        access.  Callers that bypass :meth:`Register.read`/:meth:`Register.write`
        take on the register discipline themselves — in particular they must
        bump ``read_count``/``write_count`` and honour the single-writer
        ``writer`` restriction.
        """
        register = self._registers.get(name)
        if register is None:
            register = Register(name, arena=self._arena, slot=self.resolve_slot(name))
            self._registers[name] = register
        return register

    def resolve_slot(self, name: RegisterName) -> int:
        """The arena slot for ``name``, interned on first use.

        This is the name→integer half of the slot-addressed fast path: the
        slot is stable for the lifetime of the file, carries the declared
        initial value and owner when the name was never touched before, and
        addresses the same storage :meth:`resolve` windows onto.  Operation
        binding (:meth:`repro.runtime.automaton.ReadOp.bind`) and the kernel's
        miss path are the intended callers.
        """
        arena = self._arena
        slot = arena.slots.get(name)
        if slot is None:
            slot = arena.intern(
                name, value=self._defaults.get(name), writer=self._owners.get(name)
            )
        return slot

    def arena_view(self) -> RegisterArena:
        """Sanctioned hot-loop accessor: the file's live :class:`RegisterArena`.

        Execution engines hold the arena's parallel lists directly and
        dispatch by slot (``values[slot]``), falling back to
        :meth:`resolve_slot` when a name is not yet interned.  Callers take on
        the register discipline themselves — bump the counters and honour the
        single-writer owners, exactly as :meth:`Register.read`/:meth:`Register.write`
        do.
        """
        return self._arena

    def fast_ops(self) -> "Tuple[Mapping[RegisterName, Register], Callable[[RegisterName], Register]]":
        """Name-addressed hot-loop accessor pair: ``(name→register view, resolve)``.

        The mapping is a read-only :class:`types.MappingProxyType` view of the
        file's register windows — look registers up with ``map.get(name)`` (a
        C-level dict hit) and fall back to the returned :meth:`resolve`
        callable on a miss, which creates the register with its declared
        initial value and owner.  The read-only contract is enforced: all
        mutation goes through the :class:`Register` objects or through
        :meth:`resolve`.  Slot-addressed engines use :meth:`arena_view`
        instead; both views share the same storage.
        """
        return self._registers_view, self.resolve

    def read(self, name: RegisterName, reader: Optional[ProcessId] = None) -> Any:
        """Atomically read register ``name``."""
        return self._arena.read(self.resolve_slot(name))

    def write(self, name: RegisterName, value: Any, writer: Optional[ProcessId] = None) -> None:
        """Atomically write register ``name``."""
        self._arena.write(self.resolve_slot(name), value, writer)

    def peek(self, name: RegisterName) -> Any:
        """Read without counting the access (for assertions and reporting only)."""
        return self._arena.values[self.resolve_slot(name)]

    def exists(self, name: RegisterName) -> bool:
        """Whether the register has been declared or touched."""
        return name in self._arena.slots

    def names(self) -> Tuple[RegisterName, ...]:
        """All register names that exist so far (declaration or access order)."""
        return tuple(self._arena.names)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_reads(self) -> int:
        """Total number of read operations across all registers."""
        return sum(self._arena.read_counts)

    def total_writes(self) -> int:
        """Total number of write operations across all registers."""
        return sum(self._arena.write_counts)

    def snapshot_values(self) -> Dict[RegisterName, Any]:
        """A plain dict copy of every register's current value.

        This is *not* an atomic-snapshot object (see :mod:`repro.memory.snapshot`
        for that); it is a debugging/inspection convenience used to capture
        configurations between steps, where atomicity is trivially available.
        """
        arena = self._arena
        return dict(zip(arena.names, arena.values))
