"""Unit tests for the atomic register file (repro.memory.registers)."""

from types import MappingProxyType

import pytest

from repro.errors import ConfigurationError, RegisterError
from repro.memory.registers import Register, RegisterArena, RegisterFile


class TestRegister:
    def test_read_write(self):
        register = Register(name="r")
        assert register.read() is None
        register.write(42)
        assert register.read() == 42
        assert register.write_count == 1
        assert register.read_count == 2

    def test_single_writer_enforced(self):
        register = Register(name="r", writer=1)
        register.write(1, writer=1)
        with pytest.raises(RegisterError):
            register.write(2, writer=2)

    def test_anonymous_writer_allowed_on_owned_register(self):
        # Writers without an identity (e.g. test scaffolding) are not blocked.
        register = Register(name="r", writer=1)
        register.write(3, writer=None)
        assert register.value == 3


class TestRegisterFile:
    def test_lazy_creation_with_default_none(self):
        registers = RegisterFile()
        assert registers.read("unknown") is None
        registers.write("unknown", 7)
        assert registers.read("unknown") == 7

    def test_restore_of_a_fresh_snapshot_restores_initial_state_in_place(self):
        registers = RegisterFile()
        registers.declare(("Heartbeat", 1), initial=0, writer=1)
        fresh = registers.snapshot()
        registers.write(("Heartbeat", 1), 9, writer=1)
        registers.write("lazy", "x")
        registers.read("lazy")
        slots = dict(registers.arena_view().slots)
        registers.restore(fresh)
        arena = registers.arena_view()
        # Same slots (bound operations stay valid), initial values and owners
        # back, counters zeroed, also for the slot interned after the snapshot.
        assert arena.slots == slots
        assert registers.peek(("Heartbeat", 1)) == 0 and registers.peek("lazy") is None
        assert arena.writers == [1, None]
        assert arena.read_counts == [0, 0] and arena.write_counts == [0, 0]
        with pytest.raises(RegisterError):
            registers.write(("Heartbeat", 1), 5, writer=2)

    def test_declare_sets_initial_value(self):
        registers = RegisterFile()
        registers.declare(("Heartbeat", 1), initial=0, writer=1)
        assert registers.read(("Heartbeat", 1)) == 0

    def test_declare_array(self):
        registers = RegisterFile()
        registers.declare_array("Heartbeat", (1, 2, 3), initial=0, owner_from_index=True)
        assert registers.read(("Heartbeat", 2)) == 0
        with pytest.raises(RegisterError):
            registers.write(("Heartbeat", 2), 5, writer=3)

    def test_declare_array_owner_from_index_rejects_non_int_indices(self):
        # A non-integer index cannot name an owning process: minting an
        # unowned register here would silently drop single-writer checks.
        registers = RegisterFile()
        with pytest.raises(ConfigurationError, match="integer process-id"):
            registers.declare_array("Counter", (1, ("A", 2)), initial=0, owner_from_index=True)
        with pytest.raises(ConfigurationError, match="integer process-id"):
            registers.declare_array("Flag", (True,), initial=0, owner_from_index=True)
        # Without owner_from_index the same indices are fine (and unowned).
        registers.declare_array("Counter", (1, ("A", 2)), initial=0)
        registers.write(("Counter", ("A", 2)), 5, writer=3)
        assert registers.read(("Counter", ("A", 2))) == 5

    def test_redeclare_resets_value(self):
        registers = RegisterFile()
        registers.declare("r", initial=1)
        registers.write("r", 9)
        registers.declare("r", initial=1)
        assert registers.read("r") == 1

    def test_peek_does_not_count(self):
        registers = RegisterFile()
        registers.declare("r", initial=5)
        assert registers.peek("r") == 5
        assert registers.total_reads() == 0

    def test_operation_counts(self):
        registers = RegisterFile()
        registers.write("a", 1)
        registers.write("b", 2)
        registers.read("a")
        assert registers.total_writes() == 2
        assert registers.total_reads() == 1

    def test_names_and_exists(self):
        registers = RegisterFile()
        registers.declare("a", 0)
        registers.read("b")
        assert registers.exists("a")
        assert registers.exists("b")
        assert not registers.exists("c")
        assert set(registers.names()) == {"a", "b"}

    def test_snapshot_values(self):
        registers = RegisterFile()
        registers.write("x", 1)
        registers.write("y", 2)
        assert registers.snapshot_values() == {"x": 1, "y": 2}


class TestResolveOnUndeclaredNames:
    def test_resolve_never_declared_name_creates_unowned_none_register(self):
        registers = RegisterFile()
        register = registers.resolve(("ghost", 1))
        assert register.value is None
        assert register.writer is None
        assert register.read_count == 0 and register.write_count == 0
        assert registers.exists(("ghost", 1))

    def test_resolve_after_declare_carries_declared_default_and_owner(self):
        registers = RegisterFile()
        registers.declare(("Heartbeat", 3), initial=7, writer=3)
        register = registers.resolve(("Heartbeat", 3))
        assert register.value == 7
        assert register.writer == 3
        with pytest.raises(RegisterError, match="owned by process 3"):
            register.write(1, writer=2)

    def test_resolve_slot_miss_carries_declared_default_and_owner(self):
        # resolve_slot is the hot loops' miss path: a slot interned there must
        # be indistinguishable from one created via resolve().
        registers = RegisterFile()
        registers.declare(("Counter", (1, 2), 1), initial=0, writer=1)
        arena = registers.arena_view()
        slot = registers.resolve_slot(("Counter", (1, 2), 1))
        assert arena.values[slot] == 0
        assert arena.writers[slot] == 1

    def test_arena_slots_agree_with_fast_ops_lookups(self):
        registers = RegisterFile()
        registers.declare("declared", initial=5, writer=2)
        registers.resolve("lazy")
        mapping, resolve = registers.fast_ops()
        arena = registers.arena_view()
        for name in ("declared", "lazy"):
            register = mapping.get(name) or resolve(name)
            slot = arena.slots[name]
            assert register.slot == slot
            assert register.value == arena.values[slot]
            assert register.writer == arena.writers[slot]
            # Mutation through either view is visible through the other.
            register.write(("via", name), writer=register.writer)
            assert arena.values[slot] == ("via", name)
            assert arena.write_counts[slot] == register.write_count == 1


class TestArenaCoherence:
    def test_register_is_a_live_window_onto_the_arena(self):
        registers = RegisterFile()
        register = registers.resolve("r")
        arena = registers.arena_view()
        slot = arena.slots["r"]
        arena.values[slot] = 42
        arena.read_counts[slot] = 3
        assert register.value == 42 and register.read_count == 3
        register.value = 43
        register.write_count = 9
        assert arena.values[slot] == 43 and arena.write_counts[slot] == 9
        assert registers.total_writes() == 9

    def test_redeclare_reuses_the_slot_and_resets_in_place(self):
        registers = RegisterFile()
        registers.declare("r", initial=1)
        registers.write("r", 9)
        arena = registers.arena_view()
        slot = arena.slots["r"]
        old_register = registers.resolve("r")
        registers.declare("r", initial=1)
        assert arena.slots["r"] == slot  # slot survives, bound ops stay valid
        assert registers.read("r") == 1
        assert registers.total_writes() == 0  # counters reset with the value
        assert old_register.value == 1  # the old window sees the reset state

    def test_standalone_register_owns_a_private_arena(self):
        register = Register(name="solo", value=1, writer=2)
        assert isinstance(register.arena, RegisterArena)
        assert register.arena.names == ["solo"]
        register.write(5, writer=2)
        assert register.value == 5 and register.write_count == 1

    def test_arena_len_and_names_track_interning_order(self):
        registers = RegisterFile()
        registers.declare("a", 0)
        registers.read("b")
        arena = registers.arena_view()
        assert len(arena) == 2
        assert registers.names() == ("a", "b")


class TestFastOpsReadOnlyView:
    def test_mapping_is_a_live_read_only_view(self):
        registers = RegisterFile()
        registers.declare("a", 0)
        mapping, resolve = registers.fast_ops()
        assert isinstance(mapping, MappingProxyType)
        assert "a" in mapping
        resolve("b")  # lazily created registers appear in the live view
        assert "b" in mapping

    def test_mapping_rejects_mutation(self):
        registers = RegisterFile()
        registers.declare("a", 0)
        mapping, _ = registers.fast_ops()
        with pytest.raises(TypeError):
            mapping["rogue"] = Register(name="rogue")
        with pytest.raises(TypeError):
            del mapping["a"]
        with pytest.raises(AttributeError):
            mapping.clear()
