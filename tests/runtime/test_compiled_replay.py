"""Compiled-buffer replay through :func:`~repro.runtime.kernel.execute`: its sources.

That a replay of a :class:`~repro.core.schedule.CompiledSchedule` (whole, capped
by ``max_steps``, empty, as a raw array, a list or a one-shot iterable)
executes exactly what the live per-step stream executes, raises included, for
the function automata, Figure 2 under every registry statistic and timeout
policy and the agreement stack, is the conformance lane table's job
(``tests/conformance/test_lane_table.py``).  This module checks how
``execute`` takes its sources.
"""

import pytest

from repro.core.schedule import CompiledSchedule, InfiniteSchedule
from repro.errors import SimulationError
from repro.runtime.automaton import IdleAutomaton
from repro.runtime.kernel import execute
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import build_simulator


def _sim(n=2):
    return build_simulator(n, lambda pid: IdleAutomaton(pid, n))


class TestCompiledReplaySources:
    def test_compiled_schedule_over_wrong_universe_rejected(self):
        # A buffer compiled for Π3 cannot drive a Π2 replica, even if its
        # steps happen to stay within range.
        with pytest.raises(SimulationError, match="Π3"):
            execute(_sim(n=2), CompiledSchedule(n=3, steps=[1, 2]))

    def test_infinite_schedule_requires_max_steps(self):
        infinite = InfiniteSchedule(n=2, step_fn=lambda index: 1 + index % 2)
        with pytest.raises(SimulationError, match="max_steps"):
            execute(_sim(), infinite)
        result = execute(_sim(), infinite, max_steps=10)
        assert result.steps_executed == 10

    def test_one_shot_iterable_is_consumed_lazily_under_a_budget(self):
        # A bare iterable without max_steps is materialized and run to its
        # end; with max_steps it is consumed lazily, exactly that many steps.
        pulled = []

        def one_shot():
            for pid in [1, 2] * 10:
                pulled.append(pid)
                yield pid

        assert execute(_sim(), one_shot()).steps_executed == 20
        assert len(pulled) == 20
        pulled.clear()
        assert execute(_sim(), one_shot(), max_steps=7).steps_executed == 7
        assert len(pulled) == 7

    def test_run_collects_the_trace(self):
        compiled = CompiledSchedule(n=2, steps=[1, 2, 1])
        sim = _sim()
        result = sim.run(compiled)
        assert result.executed_schedule.steps == (1, 2, 1)
        assert sim.trace().steps == (1, 2, 1)

    def test_tracker_on_the_bare_loop_samples_each_process_first_step(self):
        compiled = CompiledSchedule(n=2, steps=[1, 2] * 20)
        simulator = _sim()
        tracker = OutputTracker(key="absent")
        simulator.add_observer(tracker)
        result = execute(simulator, compiled)
        assert result.steps_executed == 40 and result.executed_schedule.steps == ()
        # Each process's first sampled step records its (unpublished) value.
        assert [(change.step, change.pid) for change in tracker.changes] == [(1, 1), (2, 2)]
