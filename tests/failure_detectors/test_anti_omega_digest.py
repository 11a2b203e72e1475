"""A sha256 pin of everything a Figure 2 run observably produces.

The conformance lane table compares execution paths with a reference loop,
so a change to the k-anti-Ω automaton itself (or to a kernel path every lane
shares) that drifts all of them in lockstep would pass it.  This module pins the
detector against fixed digests instead.  For every run of the E2 grid (the
``e2-seeds`` campaign) and of the A1/A2 ablations (every accusation
statistic and timeout policy) at a short horizon it hashes:

* the campaign payload of the ``detector`` kind;
* both :class:`~repro.runtime.observers.OutputTracker` change lists
  (``fdOutput`` and ``winnerset``);
* every register's final value and read/write counts;
* every process's ``steps_taken``.

One composed anti-Ω + k-set agreement stack is pinned the same way, once
on ``run`` with the decided-stop condition and once on ``run_fast`` without
one.  Each detector digest is checked on two paths — ``run_fast`` with
prebound ops and ``run`` on the name-addressed path — which must both
reproduce the pin.

A change of any digest means the runs changed — not just their speed.
Regenerate the table only for a deliberate semantic change, and say so.
"""

import hashlib
import json

import pytest

from repro.agreement.kset import DECISION
from repro.agreement.problem import AgreementInstance, distinct_inputs
from repro.agreement.runner import build_agreement_algorithm
from repro.analysis.experiment import (
    accusation_ablation_campaign_spec,
    detector_seed_grid_campaign_spec,
    timeout_ablation_campaign_spec,
)
from repro.campaign.runner import (
    ACCUSATION_STATISTICS,
    TIMEOUT_POLICIES,
    compiled_schedule_for,
    run_detector_kind,
)
from repro.failure_detectors.anti_omega import (
    KAntiOmegaAutomaton,
    make_anti_omega_algorithm,
)
from repro.failure_detectors.base import make_detector_trackers
from repro.memory.registers import RegisterFile
from repro.runtime.observers import OutputTracker
from repro.runtime.simulator import Simulator
from repro.schedules.set_timely import SetTimelyGenerator

HORIZON = 5_000


def _campaign_runs():
    specs = {
        "e2": detector_seed_grid_campaign_spec(horizon=HORIZON),
        "a1": accusation_ablation_campaign_spec(horizon=HORIZON),
        "a2": timeout_ablation_campaign_spec(horizon=HORIZON),
    }
    return {name: [run.param_dict() for run in spec.expand()] for name, spec in specs.items()}


def _value_repr(value):
    """Order-independent repr for set-valued outputs."""
    if isinstance(value, frozenset):
        return ("frozenset", sorted(value))
    if isinstance(value, dict):
        return ("dict", sorted((repr(key), _value_repr(item)) for key, item in value.items()))
    return value


def _hash_simulator(hasher, simulator, trackers):
    for tracker in trackers:
        hasher.update(tracker.key.encode())
        for change in tracker.changes:
            hasher.update(repr((change.step, change.pid, _value_repr(change.value))).encode())
    registers = simulator.registers
    rows = []
    for name in registers.names():
        register = registers.resolve(name)
        rows.append(
            repr((name, _value_repr(register.value), register.read_count, register.write_count))
        )
    for row in sorted(rows):
        hasher.update(row.encode())
    hasher.update(
        repr([simulator.steps_taken(pid) for pid in range(1, simulator.n + 1)]).encode()
    )


def _detector_digest(params, path):
    n, t, k = int(params["n"]), int(params["t"]), int(params["k"])
    registers = RegisterFile()
    KAntiOmegaAutomaton.declare_registers(registers, n=n, k=k)
    automata = make_anti_omega_algorithm(
        n=n,
        t=t,
        k=k,
        accusation_statistic=ACCUSATION_STATISTICS[params.get("statistic", "paper")],
        timeout_policy=TIMEOUT_POLICIES[params.get("policy", "paper")],
    )
    compiled = compiled_schedule_for(params, HORIZON)
    simulator = Simulator(
        n=n, automata=automata, registers=registers, prebind=path == "fast-bound"
    )
    trackers = make_detector_trackers()
    for tracker in trackers:
        simulator.add_observer(tracker)
    if path == "fast-bound":
        simulator.run_fast(compiled)
    else:
        simulator.run(compiled)
    hasher = hashlib.sha256()
    hasher.update(json.dumps(run_detector_kind(dict(params)), sort_keys=True).encode())
    _hash_simulator(hasher, simulator, trackers)
    return hasher.hexdigest()


def _combined(runs, path):
    hasher = hashlib.sha256()
    for params in runs:
        hasher.update(json.dumps(params, sort_keys=True).encode())
        hasher.update(_detector_digest(params, path).encode())
    return hasher.hexdigest()


def _agreement_digest(stop_when_decided):
    n, t, k = 4, 2, 2
    problem = AgreementInstance(t=t, k=k, n=n)
    registers, automata, _ = build_agreement_algorithm(problem, distinct_inputs(n))
    simulator = Simulator(n=n, automata=automata, registers=registers)
    decision_tracker = OutputTracker(key=DECISION)
    trackers = (decision_tracker, *make_detector_trackers())
    for tracker in trackers:
        simulator.add_observer(tracker)
    generator = SetTimelyGenerator(
        n=n, p_set={1, 2}, q_set={1, 2, 3}, bound=3, seed=5
    )
    compiled = generator.compile(HORIZON)
    if stop_when_decided:
        def decided(step, sim):
            return all(sim.output_of(pid, DECISION) is not None for pid in range(1, n + 1))

        result = simulator.run(compiled, stop_condition=decided)
    else:
        result = simulator.run_fast(compiled)
    hasher = hashlib.sha256()
    hasher.update(repr((result.steps_executed, result.stopped_early)).encode())
    hasher.update(
        repr(sorted((pid, _value_repr(outputs)) for pid, outputs in result.outputs.items())).encode()
    )
    _hash_simulator(hasher, simulator, trackers)
    return hasher.hexdigest()


#: Recorded at the commit before the Figure 2 sweeps became collect ops.
PINNED = {
    "e2": (
        "305819ec63adbfb1df17abc63c2e2c15"
        "f4b4842a7a2b5945be1df38210c6c1eb"
    ),
    "a1": (
        "56ba91290bc8a1dfbdee303bad24e536"
        "5ea61202c6bbe53f8e8ad46de978e843"
    ),
    "a2": (
        "1eaf2a7fccd0b78065211def50d3069a"
        "3fab27870ba4663dbc8d538ac6f6a42b"
    ),
    "agreement-stop": (
        "345f5c79211e7c8c1a605374bf957a68"
        "7af8ba4159c93166aab4aa93ba0ea1b5"
    ),
    "agreement-fast": (
        "5a6cc3edc06075986b58d402dbd644e4"
        "4c47c53905e86443567836507b30b385"
    ),
}


def test_grid_covers_e2_and_every_statistic_and_policy():
    runs = _campaign_runs()
    assert len(runs["e2"]) == 21
    assert {params["statistic"] for params in runs["a1"]} == set(ACCUSATION_STATISTICS)
    assert {params["policy"] for params in runs["a2"]} == set(TIMEOUT_POLICIES)


@pytest.mark.parametrize("path", ["fast-bound", "instrumented-unbound"])
@pytest.mark.parametrize("campaign", ["e2", "a1", "a2"])
def test_detector_runs_match_pinned_digest(campaign, path):
    assert _combined(_campaign_runs()[campaign], path) == PINNED[campaign]


@pytest.mark.parametrize("stop_when_decided", [True, False], ids=["stop", "fast"])
def test_composed_agreement_run_matches_pinned_digest(stop_when_decided):
    label = "agreement-stop" if stop_when_decided else "agreement-fast"
    assert _agreement_digest(stop_when_decided) == PINNED[label]
