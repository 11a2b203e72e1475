"""Hypothesis profiles and strategies for the differential conformance suite.

Tier-1 runs the derandomized ``conformance`` profile, so every run draws the
same examples and a failure reproduces as it is.  Setting
``REPRO_CONFORMANCE_PROFILE=conformance-deep`` runs many more, randomized
examples (a CI leg's job).

The lane table (``test_lane_table.py``) draws its replica kinds here: the
function automata, Figure 2 under every registry statistic and timeout
policy, and the (t,k,n)-agreement stack, each a :class:`Setup`.  Figure 2's
incremental iterations have their own reference, :class:`RecomputingAntiOmega`.
"""

from __future__ import annotations

import os
from array import array
from itertools import islice
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from repro.agreement.kset import DECISION
from repro.agreement.problem import distinct_inputs
from repro.agreement.runner import build_agreement_algorithm
from repro.campaign.runner import ACCUSATION_STATISTICS, TIMEOUT_POLICIES
from repro.core.schedule import CompiledSchedule
from repro.distsim import available_latency_models
from repro.errors import ConfigurationError
from repro.failure_detectors.anti_omega import KAntiOmegaAutomaton
from repro.failure_detectors.base import FD_OUTPUT, ITERATION, LEADER, WINNER_SET
from repro.memory.registers import RegisterFile
from repro.runtime.automaton import CollectOp, FunctionAutomaton, ReadOp, WriteOp
from repro.runtime.composition import ComposedAutomaton
from repro.runtime.simulator import Simulator
from repro.scenarios.spec import build_generator
from repro.search.properties import available_properties
from repro.search.shrink import rebuild_candidate
from repro.types import AgreementInstance

settings.register_profile(
    "conformance",
    max_examples=30,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile(
    "conformance-deep",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: The settings every conformance test runs under.
CONFORMANCE = settings(
    settings.get_profile(os.environ.get("REPRO_CONFORMANCE_PROFILE", "conformance"))
)

#: Burst lengths: solo stretches long enough to expire Figure 2's timers.
BURSTS = (1, 2, 3, 9, 27, 81, 243)


@st.composite
def property_setups(draw) -> Tuple[str, int, int, int]:
    """``(property name, n, t, k)`` every registered property accepts.

    Agreement safety runs the composed detector + agreement stack when
    ``k <= t`` and the trivial algorithm otherwise; both are drawn.
    """
    name = draw(st.sampled_from(available_properties()))
    n = draw(st.integers(3, 5))
    t = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, n - 1))
    return name, n, t, k


@st.composite
def candidates(draw, n: int, t: int) -> CompiledSchedule:
    """A bursty schedule over ``Πn`` with up to ``t`` mid-run crashes.

    Each burst is one process stepping alone; uniformly random steps keep
    every process timely and hide most detector behaviour.  A crashed
    process takes no step from its drawn crash point on, and the crash
    metadata is rebuilt to match the buffer.
    """
    bursts = draw(
        st.lists(
            st.tuples(st.integers(1, n), st.sampled_from(BURSTS)), max_size=14
        )
    )
    steps: List[int] = [pid for pid, length in bursts for _ in range(length)]
    faulty = draw(st.sets(st.integers(1, n), max_size=t))
    for pid in sorted(faulty):
        crash_at = draw(st.integers(0, len(steps)))
        steps = [
            step for index, step in enumerate(steps) if step != pid or index < crash_at
        ]
    return rebuild_candidate(n, steps, sorted(faulty), "generated")


def observable_state(simulator, trackers, names=None) -> Dict[str, Any]:
    """Everything a run can observably change, registers read by ``names``.

    Without ``names``, every register some operation touched: one interned
    but never read or written holds its construction-time state, which a
    run cannot tell from the name never having been interned.
    """
    arena = simulator.registers.arena_view()
    if names is None:
        names = [
            name
            for name, reads, writes in zip(arena.names, arena.read_counts, arena.write_counts)
            if reads or writes
        ]
    registers = {}
    for name in names:
        slot = simulator.registers.resolve_slot(name)
        registers[name] = (
            arena.values[slot],
            arena.read_counts[slot],
            arena.write_counts[slot],
            arena.writers[slot],
        )
    pids = range(1, simulator.n + 1)
    return {
        "outputs": {pid: dict(simulator.automaton(pid).outputs) for pid in pids},
        "versions": {
            pid: (
                simulator.automaton(pid).outputs_version,
                dict(simulator.automaton(pid).output_versions),
            )
            for pid in pids
        },
        "changes": [
            [(change.step, change.pid, change.value) for change in tracker.changes]
            for tracker in trackers
        ],
        "registers": registers,
        "steps_taken": [simulator.steps_taken(pid) for pid in pids],
        "halted": simulator.halted_processes(),
        "step_index": simulator.step_index,
        "trace": simulator.trace().steps,
    }


#: Longest prefix a family conformance example compiles.
FAMILY_HORIZON = 600
#: Longest family prefix a lane table example runs: long enough for Figure 2
#: to settle and its incremental iterations to skip.
LANE_HORIZON = 2_400


@st.composite
def crash_params(
    draw, n: int, horizon: int, including: Tuple[int, ...] = ()
) -> Dict[str, Any]:
    """Scenario crash parameters over ``Πn`` for a ``horizon``-step prefix.

    Shapes: failure-free, static (``crashes``: crashed from step 0), mid-run
    (``crash_steps`` in ``[0, horizon]``) for a drawn non-empty subset that
    always contains ``including``, and everyone crashing mid-run.
    """
    pids = st.integers(1, n)
    shape = draw(st.sampled_from(["mid-run", "mid-run", "static", "none", "everyone"]))
    if shape == "none":
        return {}
    if shape == "static":
        return {"crashes": sorted(draw(st.sets(pids, max_size=n)) | set(including))}
    faulty = (
        set(range(1, n + 1))
        if shape == "everyone"
        else draw(st.sets(pids, min_size=1, max_size=n)) | set(including)
    )
    crash_at = st.integers(0, horizon)
    return {"crash_steps": {str(pid): draw(crash_at) for pid in sorted(faulty)}}


@st.composite
def _round_robin(draw, n: int) -> Dict[str, Any]:
    order = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(1, n))]
    return {"order": list(order)} if draw(st.booleans()) else {}


@st.composite
def _random(draw, n: int) -> Dict[str, Any]:
    weights = draw(
        st.dictionaries(st.integers(1, n), st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]))
    )
    return {"weights": {str(pid): w for pid, w in weights.items()}} if weights else {}


@st.composite
def _eventually_synchronous(draw, n: int) -> Dict[str, Any]:
    return {"chaos_steps": draw(st.integers(0, 300))}


@st.composite
def _carrier_rotation(draw, n: int) -> Dict[str, Any]:
    carriers = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
    return {
        "carriers": carriers,
        "base_phase": draw(st.integers(1, 6)),
        "phase_growth": draw(st.integers(1, 4)),
        # A crashed carrier hands the rest of its phase over.
        "_including": (draw(st.sampled_from(carriers)),) if len(carriers) > 1 else (),
    }


@st.composite
def _alternating_epochs(draw, n: int) -> Dict[str, Any]:
    return {
        "sync_epoch": draw(st.integers(1, 40)),
        "async_epoch": draw(st.integers(1, 40)),
        "epoch_growth": draw(st.integers(0, 8)),
    }


@st.composite
def _crash_churn(draw, n: int) -> Dict[str, Any]:
    period = draw(st.integers(1, 40))
    return {
        "period": period,
        "outage": draw(st.integers(0, period)),
        "churn": draw(st.integers(0, 3)),
    }


@st.composite
def _set_timely(draw, n: int) -> Dict[str, Any]:
    pids = st.integers(1, n)
    p_set = draw(st.sets(pids, min_size=1, max_size=n))
    q_set = draw(st.sets(pids, min_size=1, max_size=n))
    fillers = sorted(set(range(1, n + 1)) - p_set)
    burst_pool = sorted(set(fillers) - q_set)
    burst_set = draw(st.sets(st.sampled_from(burst_pool), max_size=2)) if burst_pool else set()
    return {
        "p_set": sorted(p_set),
        "q_set": sorted(q_set),
        "bound": draw(st.integers(2, 6)),
        "base_phase": draw(st.integers(1, 6)),
        "phase_growth": draw(st.integers(1, 4)),
        "burst_set": sorted(burst_set),
        "burst_base": draw(st.integers(0, 20)),
        "burst_growth": draw(st.integers(0, 10)),
        # Every filler (process outside P) crashed: the emitter stops
        # drawing fillers from the last filler crash step on.
        "_including": tuple(fillers) if draw(st.booleans()) else (),
    }


@st.composite
def _distsim(draw, n: int) -> Dict[str, Any]:
    """A latency model, message loss, an outage and a crash instant.

    The ``dist-*`` families take their crashes as ``crash_times`` (simulated
    instants), not as the scenario-level crash parameters.
    """
    params: Dict[str, Any] = {
        "latency": draw(st.sampled_from(available_latency_models())),
        "latency_scale": draw(st.integers(1, 4)),
    }
    if draw(st.booleans()):
        params["loss_rate"] = draw(st.sampled_from([0.1, 0.3, 0.6]))
    if draw(st.booleans()):
        params["outages"] = [
            {"pid": draw(st.integers(1, n)), "start": draw(st.integers(0, 300)),
             "duration": 100, "period": 400}
        ]
    if draw(st.booleans()):
        params["crash_times"] = {str(draw(st.integers(1, n))): draw(st.integers(0, 800))}
    return params


#: Family name -> strategy of its own parameters given ``n``.
FAMILY_STRATEGIES = {
    "round-robin": _round_robin,
    "random": _random,
    "eventually-synchronous": _eventually_synchronous,
    "carrier-rotation": _carrier_rotation,
    "alternating-epochs": _alternating_epochs,
    "set-timely": _set_timely,
    "crash-churn": _crash_churn,
    "dist-heavy-tail": _distsim,
    "dist-diurnal": _distsim,
    "dist-correlated-failures": _distsim,
    "dist-rolling-restart": _distsim,
    "dist-sticky-failover": _distsim,
}


@st.composite
def family_cases(
    draw, family: str, n: Optional[int] = None, horizon: int = FAMILY_HORIZON
) -> Tuple[Dict[str, Any], int]:
    """``(build_generator parameters, prefix length)`` of ``family``.

    ``n`` is drawn from 1..9 unless given, so uniformly random stretches
    draw over alive sets of every size from 1 to 9; the prefix is at most
    ``horizon`` steps long, and crash steps fall inside it.  Some drawn
    combinations are invalid (every carrier or every member of ``P`` crashed
    from step 0, all weights zero, a ``dist-*`` family below its smallest
    ``n``): building them raises :class:`~repro.errors.ConfigurationError`.
    """
    if n is None:
        n = draw(st.integers(1, 9))
    length = draw(st.integers(0, horizon))
    own = draw(FAMILY_STRATEGIES[family](n))
    including = own.pop("_including", ())
    params = {"schedule": family, "n": n, "seed": draw(st.integers(0, 2**32 - 1)), **own}
    if not family.startswith("dist-"):  # those crash at drawn instants instead
        params.update(draw(crash_params(n, length, including)))
    return params, length


# ----------------------------------------------------------------------
# The lane table's setups
# ----------------------------------------------------------------------

class Setup(NamedTuple):
    """One replica kind of the lane table, built fresh for every lane.

    ``build(prebind, recompute=False)`` returns a new simulator over ``Πn``;
    ``recompute`` puts :class:`RecomputingAntiOmega` where Figure 2 runs
    (``recomputable`` setups only).  ``keys`` are the output keys a tracker
    may read; schedules crash at most ``t`` processes.
    """

    label: str
    n: int
    t: int
    keys: Tuple[str, ...]
    build: Callable[..., Simulator]
    recomputable: bool = False

    def __repr__(self) -> str:
        return f"Setup({self.label})"


def _token_program(automaton, ctx):
    """Reads, writes and publishes forever: the steady-state profile."""
    total = 0
    while True:
        value = yield ReadOp(("token",))
        current = value or 0
        yield WriteOp(("token",), current + 1)
        total += current
        if total % 3 == 0:
            automaton.publish("total", total)


def _halting_program(automaton, ctx):
    """Publishes, then returns after five rounds: the halt path."""
    for round_index in range(5):
        value = yield ReadOp(("token",))
        automaton.publish("last", value)
        yield WriteOp(("scratch", automaton.pid), round_index)
    return "done"


def _owned_counter_program(automaton, ctx, trespass_round=None):
    """Single-writer per-process registers with cross-process reads.

    With ``trespass_round``, the last process writes process 1's register
    in that round instead: a single-writer violation mid-run.
    """
    ops = [ReadOp(("count", peer)) for peer in range(1, automaton.n + 1)]
    mine = ("count", automaton.pid)
    value = 0
    while True:
        total = 0
        for op in ops:
            observed = yield op
            total += observed or 0
        value += 1
        trespass = value == trespass_round and automaton.pid == automaton.n
        yield WriteOp(("count", 1) if trespass else mine, value)
        automaton.publish("seen", total)


def _trespassing_program(automaton, ctx):
    return (yield from _owned_counter_program(automaton, ctx, trespass_round=3))


def _collecting_program(automaton, ctx):
    """Collects of one and of every register around writes; publishes what it saw."""
    pid = automaton.pid
    count = 0
    while True:
        (own,) = yield CollectOp([("cell", pid)])
        values = yield CollectOp([("cell", q) for q in range(1, automaton.n + 1)])
        automaton.publish("seen", tuple(values))
        count += 1
        yield WriteOp(("cell", pid), (own or 0) + count)


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


def _function(program):
    return lambda pid, n: FunctionAutomaton(pid, n, program)


def _noisy_composed(pid, n):
    """A component publishing an untracked key every step, and a slower one."""
    return ComposedAutomaton(
        pid=pid,
        n=n,
        components=[
            ("fast", FunctionAutomaton(pid, n, _noisy(1))),
            ("slow", FunctionAutomaton(pid, n, _noisy(5))),
        ],
    )


#: Name -> (automaton factory, output keys, whether ``count`` registers are owned).
FUNCTION_AUTOMATA = {
    "token": (_function(_token_program), ("total",), False),
    "halting": (_function(_halting_program), ("last",), False),
    "owned-counter": (_function(_owned_counter_program), ("seen",), True),
    "trespassing": (_function(_trespassing_program), ("seen",), True),
    "collecting": (_function(_collecting_program), ("seen",), False),
    "noisy-composed": (_noisy_composed, ("slow.value", "value", "fast.noise"), False),
}


def function_setup(name: str, n: int, strict: bool = False) -> Setup:
    """The :data:`FUNCTION_AUTOMATA` system ``name`` over ``Πn``."""
    factory, keys, owned = FUNCTION_AUTOMATA[name]

    def build(prebind: bool, recompute: bool = False) -> Simulator:
        registers = RegisterFile()
        if owned:
            registers.declare_array(
                "count", tuple(range(1, n + 1)), initial=0, owner_from_index=True
            )
        automata = {pid: factory(pid, n) for pid in range(1, n + 1)}
        return Simulator(n=n, automata=automata, registers=registers, strict=strict,
                         prebind=prebind)

    return Setup(f"{name} n={n} strict={strict}", n, n - 1, keys, build)


#: Figure 2's outputs: lines 3-5 publish the first four, every iteration the last.
FIGURE2_KEYS = (FD_OUTPUT, WINNER_SET, "accusations", LEADER, ITERATION)


def figure2_setup(
    n: int, t: int, k: int, statistic: str = "paper", policy: str = "paper",
    declared: bool = True,
) -> Setup:
    """Figure 2 over ``Πn`` under a registry statistic and timeout policy.

    The shared registers are declared up front or, with ``declared`` false,
    created on first use.
    """

    def build(prebind: bool, recompute: bool = False) -> Simulator:
        registers = RegisterFile()
        if declared:
            KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
        kind = RecomputingAntiOmega if recompute else KAntiOmegaAutomaton
        automata = {
            pid: kind(pid=pid, n=n, t=t, k=k,
                      accusation_statistic=ACCUSATION_STATISTICS[statistic],
                      timeout_policy=TIMEOUT_POLICIES[policy])
            for pid in range(1, n + 1)
        }
        return Simulator(n=n, automata=automata, registers=registers, prebind=prebind)

    label = f"figure2 n={n} t={t} k={k} {statistic}/{policy} declared={declared}"
    return Setup(label, n, t, FIGURE2_KEYS, build, recomputable=True)


def agreement_setup(
    n: int, t: int, k: int, statistic: str = "paper", policy: str = "paper",
    strict: bool = False,
) -> Setup:
    """The (t,k,n)-agreement stack as the agreement-safety property builds it.

    ``k <= t`` composes Figure 2 with the agreement layer; ``k > t`` is the
    trivial algorithm.  Deciding processes halt, so strictness matters.
    """
    problem = AgreementInstance(t=t, k=k, n=n)

    def build(prebind: bool, recompute: bool = False) -> Simulator:
        registers, automata, _ = build_agreement_algorithm(
            problem, distinct_inputs(n), ACCUSATION_STATISTICS[statistic],
            TIMEOUT_POLICIES[policy],
        )
        if recompute:
            for automaton in automata.values():
                # Only the program differs, so the built detector component
                # becomes the reference in place.
                dict(automaton._components)["detector"].__class__ = RecomputingAntiOmega
        return Simulator(n=n, automata=automata, registers=registers, strict=strict,
                         prebind=prebind)

    detector_keys = tuple(f"detector.{key}" for key in (FD_OUTPUT, WINNER_SET, ITERATION))
    label = f"agreement n={n} t={t} k={k} {statistic}/{policy} strict={strict}"
    return Setup(label, n, t, (DECISION,) + detector_keys, build, recomputable=k <= t)


_STATISTICS = st.sampled_from(sorted(ACCUSATION_STATISTICS))
_POLICIES = st.sampled_from(sorted(TIMEOUT_POLICIES))


@st.composite
def function_setups(draw, n: int) -> Setup:
    """A function-automaton system, strict about steps after halting or not."""
    return function_setup(draw(st.sampled_from(sorted(FUNCTION_AUTOMATA))), n,
                          draw(st.booleans()))


@st.composite
def figure2_setups(draw, n: int) -> Setup:
    """Figure 2 with ``k = 1`` (the only degree publishing ``leader``) weighted up."""
    return figure2_setup(
        n, draw(st.integers(1, n - 1)), draw(st.one_of(st.just(1), st.integers(1, n - 1))),
        draw(_STATISTICS), draw(_POLICIES), draw(st.booleans()),
    )


@st.composite
def agreement_setups(draw, n: int) -> Setup:
    """The agreement stack, composed or trivial, strict or not."""
    return agreement_setup(
        n, draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1)),
        draw(_STATISTICS), draw(_POLICIES), draw(st.booleans()),
    )


#: Setup kind -> (strategy given ``n``, range of ``n``).
SETUPS = {
    "function": (function_setups, (1, 6)),
    "figure2": (figure2_setups, (2, 5)),
    "agreement": (agreement_setups, (3, 5)),
}


class RecomputingAntiOmega(KAntiOmegaAutomaton):
    """Figure 2 with lines 3-5 run on every iteration: the incremental body's reference.

    :meth:`KAntiOmegaAutomaton.program` skips lines 3-5 when a counter
    collect equals the previous one.  This body recomputes the accusations,
    the argmin and every re-publication of ``fdOutput``/``winnerset``/
    ``accusations``/``leader`` each iteration, whatever the collect, so the
    skip is invisible exactly when both publish the same values at the same
    steps (their output versions differ: re-publications bump them).
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
# The lane table's schedules
# ----------------------------------------------------------------------

class LaneCase(NamedTuple):
    """One schedule of the lane table, with what the lanes draw around it.

    ``steps`` is the schedule.  A bursty candidate may hold one stray pid
    outside ``Πn``; it then has no ``compiled`` buffer, and every loop must
    fail at that step with the reference's error.  A family case keeps its
    scenario ``params``: its per-step stream is the generator's.  ``keys``
    are the tracked outputs, ``cuts`` three sorted split points and
    ``detour`` a schedule a replica runs before it is rewound or restored.
    """

    steps: array
    compiled: Optional[CompiledSchedule]
    params: Optional[Dict[str, Any]]
    keys: Tuple[str, ...]
    cuts: Tuple[int, int, int]
    detour: CompiledSchedule

    def buffer(self):
        """The compiled buffer, or the raw steps when a stray pid leaves none."""
        return self.steps if self.compiled is None else self.compiled

    def stream(self):
        """The schedule's per-step stream: the generator's for a family case."""
        if self.params is None:
            return iter(self.steps)
        return build_generator(self.params).stream()


def pinned_case(n: int, steps, keys, cuts, detour=()) -> LaneCase:
    """A hand-written case over ``Πn`` (no stray pid) for a pinned run."""
    steps = array("i", steps)
    return LaneCase(steps, CompiledSchedule(n=n, steps=steps), None, tuple(keys), tuple(cuts),
                    CompiledSchedule(n=n, steps=array("i", detour)))


def pinned_family_case(params: Dict[str, Any], length: int, keys, cuts) -> LaneCase:
    """The ``length``-step prefix of a scenario family, for a pinned run."""
    compiled = build_generator(params).compile(length)
    return LaneCase(compiled.steps, compiled, params, tuple(keys), tuple(cuts),
                    CompiledSchedule(n=compiled.n, steps=[]))


@st.composite
def lane_cases(draw, setup: Setup) -> LaneCase:
    """A bursty candidate or a family prefix over the setup's ``Πn``.

    A family prefix stops where the stream runs out of alive processes, and
    a family that cannot be built over ``Πn`` is rejected.
    """
    n = setup.n
    params = None
    family = draw(st.sampled_from([None, *FAMILY_STRATEGIES]))
    if family is None or draw(st.booleans()):
        compiled = draw(candidates(n, setup.t))
        steps = array("i", compiled.steps)
        if draw(st.integers(0, 15)) == 11:
            steps.insert(draw(st.integers(0, len(steps))), draw(st.sampled_from([-1, 0, n + 1])))
            compiled = None
    else:
        params, length = draw(family_cases(family, n, LANE_HORIZON))
        try:
            stream = build_generator(params).stream()
        except ConfigurationError:
            assume(False)
        steps = array("i")
        try:
            steps.extend(islice(stream, length))
        except ConfigurationError:  # every process crashed before ``length``
            pass
        compiled = build_generator(params).compile(len(steps))
    keys = draw(st.lists(st.sampled_from(setup.keys + ("absent",)), min_size=1, max_size=3,
                         unique=True))
    cuts = tuple(sorted(draw(st.integers(0, len(steps))) for _ in range(3)))
    return LaneCase(steps, compiled, params, tuple(keys), cuts, draw(candidates(n, setup.t)))


@st.composite
def lane_runs(draw, kind: str) -> Tuple[Setup, LaneCase]:
    """A setup of ``kind`` and a schedule over its ``Πn``."""
    strategy, (low, high) = SETUPS[kind]
    setup = draw(strategy(draw(st.integers(low, high))))
    return setup, draw(lane_cases(setup))
