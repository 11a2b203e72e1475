"""Incremental Figure 2 iterations against the always-recompute body.

:meth:`KAntiOmegaAutomaton.program` skips lines 3-5 when a counter collect
equals the previous one: no conversion, no statistics, no argmin and no
re-publication of ``fdOutput``/``winnerset``/``accusations``/``leader``.
This module checks that the skip is invisible:

* a hypothesis differential sweep runs the automaton and
  :class:`RecomputingAntiOmega` — a copy of the body that recomputes every
  iteration — over generated set-timely, crash-churn and random schedules,
  every registry statistic and timeout policy, k = 1 (the ``leader``
  output), bound and unbound ops, declared and undeclared registers, and
  every executor, and compares tracker change lists, the per-step outputs an
  ``every_step`` observer sees, final outputs and register counts; the
  composed anti-Ω + k-set agreement stack is swept the same way;
* a call-counting statistic runs once per k-set on each collect that differs
  from the last, and never otherwise;
* every executor hands the program a fresh list per collect, so the reference
  the program keeps is never mutated underneath it.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.agreement.kset import DECISION, KSetFromAntiOmegaAutomaton
from repro.agreement.problem import distinct_inputs
from repro.campaign.runner import ACCUSATION_STATISTICS, TIMEOUT_POLICIES
from repro.core.schedule import CompiledSchedule, Schedule
from repro.failure_detectors.anti_omega import KAntiOmegaAutomaton
from repro.failure_detectors.base import FD_OUTPUT, ITERATION, LEADER, WINNER_SET
from repro.memory.registers import RegisterFile
from repro.runtime.automaton import CollectOp, ProcessAutomaton, WriteOp
from repro.runtime.composition import ComposedAutomaton
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator
from repro.scenarios.spec import build_generator

#: The outputs lines 3-5 publish, plus the iteration count.
KEYS = (FD_OUTPUT, WINNER_SET, "accusations", LEADER, ITERATION)


class RecomputingAntiOmega(KAntiOmegaAutomaton):
    """Figure 2 as it was before iterations became incremental.

    A test-local copy of the body that runs lines 3-5 and re-publishes their
    outputs on every iteration, whatever the counter collect.
    """

    def program(self, ctx):
        n, t = self.n, self.t
        ksets = self.ksets
        positions = range(len(ksets))
        rows = [slice(index * n, (index + 1) * n) for index in positions]
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
        my_hb = 0
        my_index = self.pid - 1
        prev_heartbeat = [0] * n
        timeout = [1] * len(ksets)
        timer = list(timeout)
        iteration = 0
        while True:
            counters = yield counter_collect
            try:
                counters = list(map(int, counters))
            except TypeError:
                counters = [int(value) if value is not None else 0 for value in counters]
            cnt = [counters[row] for row in rows]
            accusation = [accusation_statistic(vector, t) for vector in cnt]
            winner = accusation.index(min(accusation))
            publish(FD_OUTPUT, fd_outputs[winner])
            publish(WINNER_SET, ksets[winner])
            publish("accusations", dict(zip(ksets, accusation)))
            if publish_leader:
                publish(LEADER, ksets[winner][0])
            my_hb += 1
            yield heartbeat_write.with_value(my_hb)
            heartbeats = yield heartbeat_collect
            try:
                heartbeats = list(map(int, heartbeats))
            except TypeError:
                heartbeats = [int(value) if value is not None else 0 for value in heartbeats]
            for q_index, hbq in enumerate(heartbeats):
                if hbq > prev_heartbeat[q_index]:
                    for index in ksets_containing[q_index]:
                        timer[index] = timeout[index]
                    prev_heartbeat[q_index] = hbq
            for index in positions:
                timer[index] -= 1
                if timer[index] == 0:
                    timeout[index] = timeout_policy(timeout[index])
                    timer[index] = timeout[index]
                    yield counter_writes[index].with_value(cnt[index][my_index] + 1)
            iteration += 1
            publish(ITERATION, iteration)


# ----------------------------------------------------------------------
# Generated scenarios
# ----------------------------------------------------------------------

@st.composite
def schedule_params(draw, n):
    """Set-timely, crash-churn or random schedule parameters over ``Πn``."""
    family = draw(st.sampled_from(["set-timely", "crash-churn", "random"]))
    crashed = draw(st.lists(st.integers(1, n), unique=True, max_size=n - 2))
    params = {"schedule": family, "n": n, "seed": draw(st.integers(0, 10_000)),
              "crashes": crashed}
    if family == "set-timely":
        correct = sorted(set(range(1, n + 1)) - set(crashed))
        params["p_set"] = correct[: draw(st.integers(1, max(len(correct) - 1, 1)))]
        params["q_set"] = list(range(1, n + 1))
        params["bound"] = draw(st.integers(2, 4))
    elif family == "crash-churn":
        params["period"] = draw(st.integers(8, 64))
        params["outage"] = draw(st.integers(0, params["period"]))
        params["churn"] = draw(st.integers(0, 2))
    return params


@st.composite
def detector_scenarios(draw):
    """A detector configuration, its schedule, and how to execute it."""
    n = draw(st.integers(2, 5))
    return {
        "n": n,
        "t": draw(st.integers(1, n - 1)),
        # k = 1 is weighted up: it is the only degree publishing ``leader``.
        "k": draw(st.one_of(st.just(1), st.integers(1, n - 1))),
        "statistic": draw(st.sampled_from(sorted(ACCUSATION_STATISTICS))),
        "policy": draw(st.sampled_from(sorted(TIMEOUT_POLICIES))),
        "declared": draw(st.booleans()),
        "prebind": draw(st.booleans()),
        "path": draw(st.sampled_from(sorted(PATHS))),
        "cut": draw(st.integers(1, 97)),
        "horizon": draw(st.integers(50, 2_500)),
        "schedule": draw(schedule_params(n)),
    }


def _run_bare(simulator, steps, cut):
    simulator.run_fast(CompiledSchedule(n=simulator.n, steps=steps))


def _run_fast_list(simulator, steps, cut):
    simulator.run_fast(list(steps))


def _run_segmented(simulator, steps, cut):
    # Cut points land mid-collect, so in-flight collects carry across runs.
    for start in range(0, len(steps), cut):
        simulator.run_fast(list(steps[start:start + cut]))


def _run_instrumented(simulator, steps, cut):
    simulator.run(Schedule(steps=tuple(steps), n=simulator.n))


def _run_stepwise(simulator, steps, cut):
    for pid in steps:
        simulator.step(pid)


#: Executor name → (runner, whether it samples every step).
PATHS = {
    "bare": (_run_bare, False),
    "fast-list": (_run_fast_list, False),
    "segmented": (_run_segmented, False),
    "instrumented": (_run_instrumented, True),
    "stepwise": (_run_stepwise, True),
}


def _observe_run(simulator, steps, path, cut, tracked_keys, sampled):
    """Run ``steps`` on ``path``; everything observable about the run."""
    runner, every_step = PATHS[path]
    trackers = [OutputTracker(key=key) for key in tracked_keys]
    for tracker in trackers:
        simulator.add_observer(tracker)
    per_step = []
    if every_step:
        def observe(step, pid, sim):
            outputs = sim.automaton(pid).outputs
            per_step.append((step, pid, tuple(outputs.get(key) for key in sampled)))

        simulator.add_observer(observe, capability="every_step")
    runner(simulator, steps, cut)
    registers = simulator.registers
    return {
        "changes": [
            [(change.step, change.pid, change.value) for change in tracker.changes]
            for tracker in trackers
        ],
        "per_step": per_step,
        "outputs": {
            pid: dict(simulator.automaton(pid).outputs) for pid in range(1, simulator.n + 1)
        },
        "steps_taken": [simulator.steps_taken(pid) for pid in range(1, simulator.n + 1)],
        "registers": sorted(
            (repr(name), registers.resolve(name).value,
             registers.resolve(name).read_count, registers.resolve(name).write_count)
            for name in registers.names()
        ),
    }


def _versions(simulator):
    return [simulator.automaton(pid).outputs_version for pid in range(1, simulator.n + 1)]


def _detector_run(automaton_class, scenario, steps):
    n, t, k = scenario["n"], scenario["t"], scenario["k"]
    registers = RegisterFile()
    if scenario["declared"]:
        KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = {
        pid: automaton_class(
            pid=pid, n=n, t=t, k=k,
            accusation_statistic=ACCUSATION_STATISTICS[scenario["statistic"]],
            timeout_policy=TIMEOUT_POLICIES[scenario["policy"]],
        )
        for pid in range(1, n + 1)
    }
    simulator = Simulator(n=n, automata=automata, registers=registers,
                          prebind=scenario["prebind"])
    observed = _observe_run(simulator, steps, scenario["path"], scenario["cut"], KEYS, KEYS)
    return observed, _versions(simulator)


def _steps(params, horizon):
    return list(build_generator(params).compile(horizon).steps)


class TestDifferentialAgainstRecompute:
    @given(detector_scenarios())
    def test_detector_runs_are_identical(self, scenario):
        steps = _steps(scenario["schedule"], scenario["horizon"])
        incremental, versions = _detector_run(KAntiOmegaAutomaton, scenario, steps)
        recomputed, reference_versions = _detector_run(RecomputingAntiOmega, scenario, steps)
        assert incremental == recomputed
        # Skipped re-publications are the only difference: versions lag.
        assert all(new <= old for new, old in zip(versions, reference_versions))

    @given(
        st.integers(3, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, n - 1).flatmap(
                    lambda t: st.tuples(st.just(t), st.integers(1, t))
                ),
                schedule_params(n),
            )
        ),
        st.sampled_from(["bare", "segmented", "instrumented"]),
        st.integers(1, 97),
        st.integers(50, 2_000),
    )
    def test_composed_agreement_stack_is_identical(self, shape, path, cut, horizon):
        n, (t, k), params = shape
        steps = _steps(params, horizon)

        def run(detector_class):
            registers = RegisterFile()
            KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
            inputs = distinct_inputs(n)
            automata = {}
            for pid in range(1, n + 1):
                detector = detector_class(pid=pid, n=n, t=t, k=k)
                agreement = KSetFromAntiOmegaAutomaton(
                    pid=pid, n=n, t=t, k=k, input_value=inputs[pid], detector=detector
                )
                automata[pid] = ComposedAutomaton(
                    pid=pid, n=n,
                    components=[("detector", detector), ("agreement", agreement)],
                )
            simulator = Simulator(n=n, automata=automata, registers=registers)
            sampled = (DECISION,) + tuple(f"detector.{key}" for key in KEYS)
            return _observe_run(
                simulator, steps, path, cut, (DECISION, FD_OUTPUT, WINNER_SET), sampled
            )

        assert run(KAntiOmegaAutomaton) == run(RecomputingAntiOmega)


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
                    PATHS[path][0](simulator, self.STEPS, 5)
                    for collector in collectors.values():
                        _assert_fresh(collector.received)

    def test_the_detector_program_receives_fresh_lists(self):
        steps = build_generator(SET_TIMELY).compile(3_000).steps
        for path in sorted(PATHS):
            for composed in (False, True):
                simulator, detectors = _recording_simulator(composed=composed)
                PATHS[path][0](simulator, list(steps), 37)
                for detector in detectors.values():
                    _assert_fresh(detector.received)
