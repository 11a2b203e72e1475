"""Key-scoped observer sampling costs no tracker call for untracked keys.

``run_fast`` samples a process only on steps that published a key some
observer reads: an :class:`OutputTracker` names its one key, and an observer
that names none reads every key.  That the gated loop records the
change lists every-step sampling records, on Figure 2 and on automata that
publish an untracked key on every step, is the conformance lane table's job
(``tests/conformance/test_lane_table.py``); this module counts the calls the
gating saves.
"""

from repro.core.schedule import CompiledSchedule
from repro.failure_detectors.anti_omega import KAntiOmegaAutomaton
from repro.failure_detectors.base import FD_OUTPUT
from repro.runtime.automaton import FunctionAutomaton, ReadOp, WriteOp
from repro.runtime.kernel import ON_PUBLISH
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator
from repro.scenarios.spec import build_generator


def counting(tracker):
    """``tracker`` behind an observer that logs the steps it is called on."""
    calls = []

    def observe(step, pid, simulator):
        calls.append((step, pid))
        tracker(step, pid, simulator)

    observe.observer_capability = ON_PUBLISH
    observe.observed_keys = tracker.observed_keys
    return observe, calls


class TestFigure2:
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
    def test_untracked_publications_skip_the_tracker(self):
        n = 3
        automata = {pid: FunctionAutomaton(pid, n, _noisy(50)) for pid in range(1, n + 1)}
        simulator = Simulator(n=n, automata=automata)
        observer, calls = counting(OutputTracker(key="value"))
        simulator.add_observer(observer)
        simulator.run_fast(CompiledSchedule(n=n, steps=[1, 2, 3] * 200))
        # Each process takes 200 steps, two per loop turn, so its 100 turns
        # publish ``value`` twice: one first sample plus two per process.
        assert len(calls) == n * (1 + 2)
