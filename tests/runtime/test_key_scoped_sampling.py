"""Key-scoped observer sampling records what every-step sampling records.

Publication-gated policies sample a process only on steps that published a
key some observer reads: an :class:`OutputTracker` names its one key, and an
observer that names none reads every key.  Each test runs one schedule under
the instrumented policy (every observer after every step) and under each
publication-gated executor, and requires identical tracker change lists —
on Figure 2, whose per-iteration ``iteration`` publish no tracker reads, and
on automata that publish an untracked key on every step.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.schedule import CompiledSchedule, Schedule
from repro.failure_detectors.anti_omega import KAntiOmegaAutomaton
from repro.failure_detectors.base import FD_OUTPUT, WINNER_SET
from repro.runtime.automaton import FunctionAutomaton, ReadOp, WriteOp
from repro.runtime.composition import ComposedAutomaton
from repro.runtime.kernel import ON_PUBLISH, trace_sampling
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator
from repro.scenarios.spec import build_generator


def _instrumented(simulator, steps):
    simulator.run(Schedule(steps=tuple(steps), n=simulator.n))


def _bare(simulator, steps):
    simulator.run_fast(CompiledSchedule(n=simulator.n, steps=steps))


def _fast_list(simulator, steps):
    simulator.run_fast(list(steps))


def _segmented(simulator, steps):
    for start in range(0, len(steps), 37):
        simulator.run_fast(list(steps[start:start + 37]))


def _general_on_publish(simulator, steps):
    # A traced publication-gated policy runs the general loop.
    simulator.run_with_policy(list(steps), trace_sampling(3))


#: Publication-gated executors, each compared with the instrumented run.
GATED = {
    "bare": _bare,
    "fast-list": _fast_list,
    "segmented": _segmented,
    "general": _general_on_publish,
}


def counting(tracker):
    """``tracker`` behind an observer that logs the steps it is called on."""
    calls = []

    def observe(step, pid, simulator):
        calls.append((step, pid))
        tracker(step, pid, simulator)

    observe.observer_capability = ON_PUBLISH
    observe.observed_keys = tracker.observed_keys
    return observe, calls


def _changes(build, steps, run, keys):
    """Tracker change lists for ``keys``, and the tracker call logs."""
    simulator = build()
    trackers = [OutputTracker(key=key) for key in keys]
    logs = []
    for tracker in trackers:
        observer, calls = counting(tracker)
        simulator.add_observer(observer)
        logs.append(calls)
    run(simulator, steps)
    return [[(c.step, c.pid, c.value) for c in tracker.changes] for tracker in trackers], logs


def _assert_gated_runs_match(build, steps, keys):
    """Every gated executor matches the instrumented run, for ``keys`` together
    and for each key alone (one tracker's key must not mask another's)."""
    for tracked in [keys] + [(key,) for key in keys]:
        expected, every_step_calls = _changes(build, steps, _instrumented, tracked)
        for name, run in GATED.items():
            changes, calls = _changes(build, steps, run, tracked)
            assert changes == expected, (name, tracked)
            # Gating only ever removes samples.
            assert all(len(c) <= len(e) for c, e in zip(calls, every_step_calls)), name


class TestFigure2:
    @given(
        st.integers(3, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(1, n - 1).flatmap(lambda t: st.tuples(st.just(t), st.integers(1, t))),
                st.integers(0, 10_000),
                st.lists(st.integers(1, n), unique=True, max_size=n - 2),
            )
        ),
        st.integers(200, 2_500),
    )
    def test_trackers_match_every_step_sampling(self, shape, horizon):
        n, (t, k), seed, crashed = shape
        correct = sorted(set(range(1, n + 1)) - set(crashed))
        params = {
            "schedule": "set-timely", "n": n, "seed": seed, "crashes": crashed,
            "p_set": correct[:1], "q_set": list(range(1, n + 1)), "bound": 3,
        }
        steps = list(build_generator(params).compile(horizon).steps)

        def build():
            automata = {
                pid: KAntiOmegaAutomaton(pid=pid, n=n, t=t, k=k) for pid in range(1, n + 1)
            }
            return Simulator(n=n, automata=automata)

        _assert_gated_runs_match(build, steps, (FD_OUTPUT, WINNER_SET))

    def test_iteration_publishes_cost_no_tracker_call(self):
        n, t, k = 4, 2, 2
        params = {"schedule": "set-timely", "n": n, "seed": 7, "p_set": [1, 2],
                  "q_set": [1, 2, 3], "bound": 3}
        steps = list(build_generator(params).compile(30_000).steps)

        def run(observed_keys):
            automata = {pid: KAntiOmegaAutomaton(pid=pid, n=n, t=t, k=k) for pid in range(1, n + 1)}
            simulator = Simulator(n=n, automata=automata)
            tracker = OutputTracker(key=FD_OUTPUT)
            calls = []

            def observe(step, pid, sim):
                calls.append(step)
                tracker(step, pid, sim)

            observe.observed_keys = observed_keys
            simulator.add_observer(observe, capability=ON_PUBLISH)
            simulator.run_fast(CompiledSchedule(n=n, steps=steps))
            iterations = sum(sim_automaton.output("iteration") or 0
                             for sim_automaton in automata.values())
            return tracker.changes, len(calls), iterations

        scoped_changes, scoped_calls, iterations = run((FD_OUTPUT,))
        unscoped_changes, unscoped_calls, _ = run(None)
        assert scoped_changes == unscoped_changes
        # Unscoped, every iteration's publish samples the process.
        assert unscoped_calls >= iterations
        # Scoped, only the (rare) fdOutput publications and first steps do.
        assert scoped_calls < iterations // 10


def _noisy(every):
    """Publishes ``noise`` on every step and ``value`` on every ``every``-th."""

    def program(automaton, ctx):
        count = 0
        while True:
            count += 1
            automaton.publish("noise", count)
            if count % every == 0:
                # Re-publishing an unchanged value records nothing.
                automaton.publish("value", count // (2 * every))
            cell = yield ReadOp(("cell", automaton.pid % ctx.n + 1))
            yield WriteOp(("cell", automaton.pid), (cell or 0) + count)

    return program


class TestUntrackedKeyEveryStep:
    @given(
        st.integers(1, 5),
        st.integers(1, 7),
        st.lists(st.integers(1, 5), max_size=400),
    )
    def test_trackers_match_every_step_sampling(self, n, every, raw_steps):
        steps = [(step - 1) % n + 1 for step in raw_steps]

        def build():
            automata = {pid: FunctionAutomaton(pid, n, _noisy(every)) for pid in range(1, n + 1)}
            return Simulator(n=n, automata=automata)

        # "absent" is never published: its first sample still records None.
        _assert_gated_runs_match(build, steps, ("value", "absent"))

    @given(st.integers(1, 4), st.lists(st.integers(1, 4), max_size=400))
    def test_composed_components_match_every_step_sampling(self, n, raw_steps):
        steps = [(step - 1) % n + 1 for step in raw_steps]

        def build():
            automata = {
                pid: ComposedAutomaton(
                    pid=pid, n=n,
                    components=[
                        ("fast", FunctionAutomaton(pid, n, _noisy(1))),
                        ("slow", FunctionAutomaton(pid, n, _noisy(5))),
                    ],
                )
                for pid in range(1, n + 1)
            }
            return Simulator(n=n, automata=automata)

        _assert_gated_runs_match(build, steps, ("slow.value", "value", "fast.noise"))

    def test_untracked_publications_skip_the_tracker(self):
        n = 3
        steps = [1, 2, 3] * 200

        def build():
            automata = {pid: FunctionAutomaton(pid, n, _noisy(50)) for pid in range(1, n + 1)}
            return Simulator(n=n, automata=automata)

        _, (calls,) = _changes(build, steps, _bare, ("value",))
        # Each process takes 200 steps, two per loop turn, so its 100 turns
        # publish ``value`` twice: one first sample plus two per process.
        assert len(calls) == n * (1 + 2)
