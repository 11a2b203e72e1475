"""Tests for intra-process composition, crash patterns, and output observers."""

import pytest

from repro.core.schedule import Schedule
from repro.errors import ConfigurationError, SimulationError
from repro.runtime.automaton import FunctionAutomaton, ProcessAutomaton, ReadOp, WriteOp
from repro.runtime.composition import ComposedAutomaton, compose
from repro.runtime.crash import CrashPattern
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator


class Counter(ProcessAutomaton):
    """Publishes how many writes it has performed; never halts."""

    def program(self, ctx):
        count = 0
        while True:
            count += 1
            self.publish("count", count)
            yield WriteOp(("counter", self.params["tag"], self.pid), count)


class Finite(ProcessAutomaton):
    """Performs exactly three writes then halts."""

    def program(self, ctx):
        for index in range(3):
            yield WriteOp(("finite", self.pid, index), index)
        self.publish("done", True)
        return "finished"


class TestComposedAutomaton:
    def test_components_alternate_steps(self):
        detector = Counter(1, 1, tag="a")
        agreement = Counter(1, 1, tag="b")
        composed = ComposedAutomaton(1, 1, components=[("a", detector), ("b", agreement)])
        simulator = Simulator(n=1, automata={1: composed})
        simulator.run(Schedule(steps=(1,) * 10, n=1))
        # 10 steps split fairly: 5 each.
        assert detector.output("count") == 5
        assert agreement.output("count") == 5

    def test_outputs_reexported(self):
        worker = Counter(1, 1, tag="x")
        composed = compose(1, 1, worker=worker)
        simulator = Simulator(n=1, automata={1: composed})
        simulator.run(Schedule(steps=(1,) * 4, n=1))
        assert composed.output("worker.count") == 4
        assert composed.output("count") == 4

    def test_rewind_resets_components_and_their_sync(self):
        finite = Finite(1, 1)
        forever = Counter(1, 1, tag="y")
        composed = compose(1, 1, finite=finite, forever=forever)
        simulator = Simulator(n=1, automata={1: composed})
        tracker = OutputTracker(key="count")
        simulator.add_observer(tracker)
        simulator.run_fast(Schedule(steps=(1,) * 12, n=1))
        first = [(change.step, change.value) for change in tracker.changes]
        simulator.rewind()
        assert composed.outputs == {} and composed.outputs_version == 0
        assert finite.outputs == {} and forever.outputs == {}
        # Re-syncing starts over, so the replay publishes (and is sampled)
        # exactly like the first run.
        tracker = OutputTracker(key="count")
        simulator.add_observer(tracker)
        simulator.run_fast(Schedule(steps=(1,) * 12, n=1))
        assert [(change.step, change.value) for change in tracker.changes] == first
        assert finite.output("done") is True and composed.output("count") == 9

    def test_halted_component_drops_out(self):
        finite = Finite(1, 1)
        forever = Counter(1, 1, tag="y")
        composed = compose(1, 1, finite=finite, forever=forever)
        simulator = Simulator(n=1, automata={1: composed})
        simulator.run(Schedule(steps=(1,) * 12, n=1))
        assert finite.output("done") is True
        # The finite component used 3 steps; the rest went to the other one.
        assert forever.output("count") == 12 - 3

    def test_component_lookup_and_errors(self):
        worker = Counter(1, 1, tag="z")
        composed = compose(1, 1, worker=worker)
        assert composed.component("worker") is worker
        with pytest.raises(SimulationError):
            composed.component("nope")
        with pytest.raises(SimulationError):
            ComposedAutomaton(1, 1, components=[])
        with pytest.raises(SimulationError):
            ComposedAutomaton(1, 2, components=[("w", Counter(2, 2, tag="w"))])


class TestCrashPattern:
    def test_none_pattern(self):
        pattern = CrashPattern.none(4)
        assert pattern.faulty == frozenset()
        assert pattern.correct == frozenset({1, 2, 3, 4})
        assert pattern.tolerates(0)
        assert pattern.describe() == "failure-free"

    def test_initial_crashes(self):
        pattern = CrashPattern.initial_crashes(4, {2, 4})
        assert pattern.faulty == frozenset({2, 4})
        assert pattern.is_crashed(2, 0)
        assert not pattern.is_crashed(1, 1000)
        assert pattern.alive_at(0) == frozenset({1, 3})

    def test_crashes_at(self):
        pattern = CrashPattern.crashes_at(3, {2: 100})
        assert not pattern.is_crashed(2, 99)
        assert pattern.is_crashed(2, 100)
        assert pattern.failure_count == 1
        assert "2@100" in pattern.describe()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CrashPattern(n=2, crash_steps={5: 0})
        with pytest.raises(ConfigurationError):
            CrashPattern(n=2, crash_steps={1: -1})
        with pytest.raises(ConfigurationError):
            CrashPattern(n=0)


class TestOutputTracker:
    def test_records_only_changes(self):
        worker = Counter(1, 1, tag="t")
        simulator = Simulator(n=1, automata={1: worker})
        tracker = OutputTracker(key="count")
        simulator.add_observer(tracker)
        simulator.run(Schedule(steps=(1,) * 5, n=1))
        assert [change.value for change in tracker.changes] == [1, 2, 3, 4, 5]
        assert tracker.final_value(1) == 5
        assert tracker.last_change_step(1) == 5
        assert tracker.stabilization_step([1]) == 5

    def test_value_at(self):
        worker = Counter(1, 1, tag="t")
        simulator = Simulator(n=1, automata={1: worker})
        tracker = OutputTracker(key="count")
        simulator.add_observer(tracker)
        simulator.run(Schedule(steps=(1,) * 5, n=1))
        assert tracker.value_at(1, 3) == 3
        assert tracker.value_at(1, 0) is None

    def test_stable_output_not_rerecorded(self):
        def program(automaton, ctx):
            automaton.publish("flag", "steady")
            while True:
                yield ReadOp("whatever")

        worker = FunctionAutomaton(pid=1, n=1, function=program)
        simulator = Simulator(n=1, automata={1: worker})
        tracker = OutputTracker(key="flag")
        simulator.add_observer(tracker)
        simulator.run(Schedule(steps=(1,) * 50, n=1))
        assert len(tracker.changes) == 1
        assert tracker.final_values() == {1: "steady"}

    @pytest.mark.parametrize("run", ["run", "run_fast"])
    def test_first_sample_of_an_unpublished_key_is_a_change(self, run):
        # A process never sampled has no last value, so its first sample is a
        # change even when the value is None (a key it never published).
        worker = Counter(1, 2, tag="t")
        idle = Counter(2, 2, tag="u")
        simulator = Simulator(n=2, automata={1: worker, 2: idle})
        tracker = OutputTracker(key="never-published")
        simulator.add_observer(tracker)
        getattr(simulator, run)(Schedule(steps=(1, 1, 2, 1, 2), n=2))
        assert [(change.step, change.pid, change.value) for change in tracker.changes] == [
            (1, 1, None),
            (3, 2, None),
        ]
        assert tracker.final_values() == {1: None, 2: None}

    def test_direct_samples_record_none_once(self):
        simulator = Simulator(n=1, automata={1: Counter(1, 1, tag="t")})
        tracker = OutputTracker(key="count")
        tracker(7, 1, simulator)
        tracker(8, 1, simulator)
        assert [(change.step, change.pid, change.value) for change in tracker.changes] == [
            (7, 1, None)
        ]

    def test_output_of_an_unknown_process_raises(self):
        simulator = Simulator(n=2, automata={1: Counter(1, 2, tag="t"), 2: Counter(2, 2, tag="t")})
        simulator.run(Schedule(steps=(1, 2), n=2))
        assert simulator.output_of(1, "count") == 1
        assert simulator.output_of(2, "absent", "fallback") == "fallback"
        for pid in (0, 3, -1):
            with pytest.raises(SimulationError, match=rf"^unknown process id {pid}$"):
                simulator.output_of(pid, "count")
