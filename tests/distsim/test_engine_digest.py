"""A sha256 pin of everything the distsim engine observably produces.

The conformance suite (``tests/conformance/test_timeline_conformance.py``)
compares the generator path with the reduction path, but both drive the
same engine, so an engine change
that drifts both in lockstep would pass it.  This module pins the engine
against a fixed digest instead: for every distsim family × fault kind ×
``n ∈ {3, 5}``, plus the six E12 arms, it hashes the full
:class:`~repro.distsim.engine.StepRecord` fields, the
:class:`~repro.distsim.reduction.MessageStats`, the calibrated crash steps
and the :func:`~repro.distsim.reduction.timeliness_report` payload.

A change of any digest means the timeline changed — not just its speed.
Regenerate the table only for a deliberate semantic change, and say so.
"""

import hashlib
import json

import pytest

from repro.analysis.experiment import dist_emergence_campaign_spec
from repro.distsim import run_timeline, timeliness_report
from repro.scenarios.spec import build_generator

HORIZON = 1_200

FAMILIES = (
    "dist-heavy-tail",
    "dist-diurnal",
    "dist-correlated-failures",
    "dist-rolling-restart",
    "dist-sticky-failover",
)

FAULTS = {
    "none": {},
    "loss": {"loss_rate": 0.2},
    "crash": {"crash_times": {"2": 300}},
    "partition": {
        "partitions": [
            {"start": 100, "duration": 150, "period": 500, "groups": [[1, 2], [3]]}
        ]
    },
    "outage": {"outages": [{"pid": 1, "start": 150, "duration": 100, "period": 400}]},
}


def _grid_params():
    runs = []
    for family in FAMILIES:
        for fault_name, fault in FAULTS.items():
            for n in (3, 5):
                seed = len(runs)
                runs.append(
                    (f"{family}/{fault_name}/n={n}",
                     {"schedule": family, "n": n, "seed": seed, **fault})
                )
    return runs


def _e12_params():
    spec = dist_emergence_campaign_spec(horizon=HORIZON)
    return [
        (f"e12/{run['arm']}/seed={seed}", {**run, "seed": seed})
        for run in spec.runs
        for seed in (0, 1)
    ]


def _digest(params, p_set, q_set):
    timeline = run_timeline(build_generator(dict(params)), HORIZON)
    report = timeliness_report(timeline, p_set, q_set)
    hasher = hashlib.sha256()
    for record in timeline.records:
        hasher.update(
            repr((record.index, record.time, record.pid, record.cause,
                  record.src, record.send_time)).encode()
        )
    stats = timeline.stats
    hasher.update(repr((
        stats.sent, stats.delivered, stats.dropped_loss, stats.dropped_partition,
        stats.dropped_down, stats.max_latency, stats.mean_latency,
    )).encode())
    hasher.update(repr(sorted(timeline.crash_steps.items())).encode())
    hasher.update(json.dumps(report.to_payload(), sort_keys=True).encode())
    return hasher.hexdigest()


def _combined(entries):
    hasher = hashlib.sha256()
    for label, params in entries:
        n = int(params["n"])
        hasher.update(label.encode())
        hasher.update(_digest(params, [1, 2], [n]).encode())
    return hasher.hexdigest()


#: Recorded at the commit before the flat event-loop rewrite of the engine.
PINNED = {
    "dist-heavy-tail": (
        "dbb47dd8430adeebe7abd20ad1b0076e"
        "759947d9da65de78b5f9a8b26ea639ad"
    ),
    "dist-diurnal": (
        "8fdbb1a64539257b08c93b6834b444ae"
        "829593942b9091276c915a836dc94346"
    ),
    "dist-correlated-failures": (
        "ac7b9a0b2c8fbe86c9719bc20e3cf750"
        "c9ace4c04c5ecb1fb05fcb344ed75430"
    ),
    "dist-rolling-restart": (
        "b02c4c6690f62d4d5c6df3649558bd17"
        "4bf391843439da36daf6870b6e3853fc"
    ),
    "dist-sticky-failover": (
        "fac7d791027a239d87d42f01900d2814"
        "c6f7d02ed65ff42e12c3c4494288e59d"
    ),
    "e12": (
        "878f34e44695c268caa61a04291d260a"
        "32e27a7cece6cb3ab49e6a1c8dd65c04"
    ),
}


def test_grid_covers_every_family_fault_and_size():
    labels = [label for label, _ in _grid_params()]
    assert len(labels) == len(FAMILIES) * len(FAULTS) * 2 == len(set(labels))
    assert len(_e12_params()) == 12


@pytest.mark.parametrize("family", FAMILIES)
def test_family_timelines_match_pinned_digest(family):
    entries = [entry for entry in _grid_params() if entry[1]["schedule"] == family]
    assert _combined(entries) == PINNED[family]


def test_e12_arms_match_pinned_digest():
    assert _combined(_e12_params()) == PINNED["e12"]
