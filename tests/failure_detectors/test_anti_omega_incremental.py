"""Incremental Figure 2 iterations: what the skip saves, and what it relies on.

:meth:`KAntiOmegaAutomaton.program` skips lines 3-5 when a counter collect
equals the previous one: no conversion, no statistics, no argmin and no
re-publication of ``fdOutput``/``winnerset``/``accusations``/``leader``.
That the skip is invisible — the automaton and ``RecomputingAntiOmega``, a
body that recomputes every iteration, publish the same outputs at the same
steps, alone and composed into the agreement stack, under every registry
statistic and timeout policy, bound and unbound, through every loop — is the
conformance lane table's ``recomputed`` lane
(``tests/conformance/test_lane_table.py``).  This module checks that:

* a call-counting statistic runs once per k-set on each collect that differs
  from the last, and never otherwise;
* every executor hands the program a fresh list per collect, so the reference
  the program keeps is never mutated underneath it.
"""

from repro.campaign.runner import ACCUSATION_STATISTICS
from repro.core.schedule import CompiledSchedule, Schedule
from repro.failure_detectors.anti_omega import KAntiOmegaAutomaton
from repro.memory.registers import RegisterFile
from repro.runtime.automaton import CollectOp, ProcessAutomaton, WriteOp
from repro.runtime.composition import ComposedAutomaton
from repro.runtime.simulator import Simulator
from repro.scenarios.spec import build_generator


def _run_bare(simulator, steps):
    simulator.run_fast(CompiledSchedule(n=simulator.n, steps=steps))


def _run_segmented(simulator, steps):
    # Cut points land mid-collect, so in-flight collects carry across runs.
    for start in range(0, len(steps), 37):
        simulator.run_fast(list(steps[start:start + 37]))


def _run_instrumented(simulator, steps):
    simulator.run(Schedule(steps=tuple(steps), n=simulator.n))


def _run_stepwise(simulator, steps):
    for pid in steps:
        simulator.step(pid)


#: Every executor that can hand a program a collect's values.
PATHS = {
    "bare": _run_bare,
    "fast-list": lambda simulator, steps: simulator.run_fast(list(steps)),
    "segmented": _run_segmented,
    "instrumented": _run_instrumented,
    "stepwise": _run_stepwise,
}


# ----------------------------------------------------------------------
# The statistic runs only on changed collects
# ----------------------------------------------------------------------

class CountingStatistic:
    """The paper's statistic, counting its calls (its results stay pure)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, values, t):
        self.calls += 1
        return ACCUSATION_STATISTICS["paper"](values, t)


class CollectRecordingAntiOmega(KAntiOmegaAutomaton):
    """Figure 2 with its counter collects and per-collect statistic calls logged.

    Wraps the real program generator: each counter collect's values, and how
    many statistic calls resuming the program with them cost, land in
    ``counter_collects``; every collect list received, with a copy taken on
    receipt, lands in ``received``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, accusation_statistic=CountingStatistic(), **kwargs)
        self.counter_collects = []
        self.received = []

    def program(self, ctx):
        inner = super().program(ctx)
        statistic = self.accusation_statistic
        op = inner.send(None)
        while True:
            result = yield op
            if isinstance(result, list):
                self.received.append((result, list(result)))
            before = statistic.calls
            is_counter_collect = op is self._counter_collect
            op = inner.send(result)
            if is_counter_collect:
                self.counter_collects.append((list(result), statistic.calls - before))


def _recording_simulator(n=4, t=2, k=2, composed=False):
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    detectors = {pid: CollectRecordingAntiOmega(pid=pid, n=n, t=t, k=k)
                 for pid in range(1, n + 1)}
    automata = detectors
    if composed:
        automata = {pid: ComposedAutomaton(pid=pid, n=n, components=[("detector", detector)])
                    for pid, detector in detectors.items()}
    return Simulator(n=n, automata=automata, registers=registers), detectors


SET_TIMELY = {"schedule": "set-timely", "n": 4, "p_set": [1, 2], "q_set": [1, 2, 3, 4],
              "bound": 3, "seed": 11}


class TestStatisticCalls:
    def test_statistic_runs_once_per_kset_on_changed_collects_only(self):
        simulator, detectors = _recording_simulator()
        simulator.run_fast(build_generator(SET_TIMELY).compile(20_000))
        unchanged = 0
        for detector in detectors.values():
            previous = None
            assert detector.counter_collects
            for values, calls in detector.counter_collects:
                expected = len(detector.ksets) if values != previous else 0
                assert calls == expected
                unchanged += calls == 0
                previous = values
            assert detector.accusation_statistic.calls == len(detector.ksets) * sum(
                calls > 0 for _, calls in detector.counter_collects
            )
        # The run settles, so most collects repeat the last one.
        assert unchanged > len(detectors)


# ----------------------------------------------------------------------
# Every executor hands the program a fresh list per collect
# ----------------------------------------------------------------------

class Collector(ProcessAutomaton):
    """Collects every process's cell, then bumps its own; keeps each result."""

    def __init__(self, pid, n):
        super().__init__(pid, n)
        self.received = []
        self.unbind()

    def prebind(self, registers):
        self._collect = CollectOp(("cell", q) for q in range(1, self.n + 1)).bind(registers)

    def unbind(self):
        self._collect = CollectOp(("cell", q) for q in range(1, self.n + 1))

    def program(self, ctx):
        count = 0
        while True:
            values = yield self._collect
            self.received.append((values, list(values)))
            count += 1
            yield WriteOp(("cell", self.pid), count)


def _assert_fresh(received):
    assert received
    # Every result is still referenced, so equal ids would mean a reused list.
    assert len({id(values) for values, _ in received}) == len(received)
    for values, copy_on_receipt in received:
        assert values == copy_on_receipt


class TestFreshCollectLists:
    STEPS = [1, 2, 3, 1, 1, 2, 3, 3, 3, 2, 1, 2, 2, 1, 3, 1, 2, 3, 3, 1, 1, 1] * 6

    def _collectors(self, composed, prebind):
        collectors = {pid: Collector(pid, 3) for pid in (1, 2, 3)}
        automata = collectors
        if composed:
            automata = {pid: ComposedAutomaton(pid=pid, n=3, components=[("c", collector)])
                        for pid, collector in collectors.items()}
        return Simulator(n=3, automata=automata, prebind=prebind), collectors

    def test_every_executor_and_the_composition(self):
        for path in sorted(PATHS):
            for composed in (False, True):
                for prebind in (False, True):
                    simulator, collectors = self._collectors(composed, prebind)
                    PATHS[path](simulator, self.STEPS)
                    for collector in collectors.values():
                        _assert_fresh(collector.received)

    def test_the_detector_program_receives_fresh_lists(self):
        steps = build_generator(SET_TIMELY).compile(3_000).steps
        for path in sorted(PATHS):
            for composed in (False, True):
                simulator, detectors = _recording_simulator(composed=composed)
                PATHS[path](simulator, list(steps))
                for detector in detectors.values():
                    _assert_fresh(detector.received)
