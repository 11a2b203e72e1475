"""The timeline→schedule reduction at its edges.

That compiling a distsim workload through the generator and reducing its
recorded timeline (``compile_timeline(run_timeline(...))``) give the same
buffer, prefixes and crash hints is pinned by
``tests/conformance/test_timeline_conformance.py``; that the reduced buffer
drives every replica kind exactly like the generator's per-step stream is
the ``timeline`` lane of ``tests/conformance/test_lane_table.py``.

The ``dist-timeliness`` kind memoizes seed-free payloads per process;
``TestPayloadMemo`` pins that every payload it returns, memo cold or warm,
equals one built without the kind.
"""

import pytest

from repro.analysis.experiment import dist_emergence_campaign_spec
from repro.campaign.spec import canonical_json
from repro.core.schedule import CompiledSchedule
from repro.distsim import (
    compile_timeline,
    dist_family_names,
    reduction,
    run_dist_timeliness_kind,
    run_timeline,
    timeliness_report,
)
from repro.errors import ConfigurationError
from repro.memo import LRUMemo
from repro.scenarios.spec import build_generator


class TestReductionEdges:
    def test_zero_length_timeline_reduces_to_empty_schedule(self):
        params = {"schedule": "dist-heavy-tail", "n": 3, "seed": 1}
        timeline = run_timeline(build_generator(params), 0)
        assert len(timeline) == 0 and timeline.duration == 0
        compiled = compile_timeline(timeline)
        assert isinstance(compiled, CompiledSchedule)
        assert len(compiled) == 0
        assert compiled.prefix().steps == ()

    def test_run_timeline_requires_dist_generator(self):
        plain = build_generator({"schedule": "round-robin", "n": 3})
        with pytest.raises(ConfigurationError, match="distsim"):
            run_timeline(plain, 10)

    def test_timeline_stats_are_reproducible(self):
        params = {"schedule": "dist-heavy-tail", "n": 4, "seed": 9, "loss_rate": 0.3}
        a = run_timeline(build_generator(params), 500)
        b = run_timeline(build_generator(params), 500)
        assert a.stats == b.stats
        assert a.stats.dropped_loss > 0
        # Conservation: every sent message is delivered, dropped, or still in
        # flight when the horizon cuts the run — never double-counted.
        accounted = (
            a.stats.delivered
            + a.stats.dropped_loss
            + a.stats.dropped_partition
            + a.stats.dropped_down
        )
        assert accounted <= a.stats.sent


class TestReportConsistency:
    def test_report_matches_across_fresh_runs(self):
        params = {"schedule": "dist-sticky-failover", "n": 3, "seed": 0}
        first = timeliness_report(run_timeline(build_generator(params), 800), [1, 2], [3])
        second = timeliness_report(run_timeline(build_generator(params), 800), [1, 2], [3])
        assert first.to_payload() == second.to_payload()


#: Every E12 arm as the campaign runs it, and each ``dist-*`` family at its
#: defaults; the seed is set per test.
E12_RUNS = [
    {name: value for name, value in run.items() if name != "seed"}
    for run in dist_emergence_campaign_spec().runs
]
MEMO_RUNS = [pytest.param(run, id=f"e12 {run['arm']}") for run in E12_RUNS] + [
    pytest.param(
        {"schedule": family, "n": 3, "horizon": 600, "p_set": [1, 2], "q_set": [3]},
        id=family,
    )
    for family in dist_family_names()
]
#: The E12 arms that draw nothing from any RNG stream.
SEED_FREE_ARMS = ["sticky / constant", "round-robin / constant", "sticky / partitioned"]


def _fresh_payload(params):
    """The kind's payload built without the kind: record, report, describe."""
    generator = build_generator(params)
    timeline = run_timeline(generator, int(params["horizon"]))
    report = timeliness_report(
        timeline, params["p_set"], params["q_set"], threshold=int(params.get("threshold", 8))
    )
    return {
        **report.to_payload(),
        "schedule": params["schedule"],
        "description": generator.description,
    }


class TestPayloadMemo:
    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(reduction, "_PAYLOAD_MEMO", LRUMemo(reduction._PAYLOAD_MEMO.limit))

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    @pytest.mark.parametrize("seed", [0, 1, 97])
    @pytest.mark.parametrize("run", MEMO_RUNS)
    def test_payload_equals_a_fresh_build(self, run, seed, memo):
        if memo == "warm":
            run_dist_timeliness_kind({**run, "seed": seed + 1})
        params = {**run, "seed": seed}
        payload = run_dist_timeliness_kind(params)
        assert canonical_json(payload) == canonical_json(_fresh_payload(params))

    def test_seed_free_arms_record_one_timeline_per_process(self, monkeypatch):
        recorded = []

        def counting_run_timeline(generator, length):
            recorded.append(generator.config.seed)
            return run_timeline(generator, length)

        monkeypatch.setattr(reduction, "run_timeline", counting_run_timeline)
        seeds = (0, 1, 97)
        for run in E12_RUNS:
            for seed in seeds:
                run_dist_timeliness_kind({**run, "seed": seed})
        seed_free = [
            run["arm"] for run in E12_RUNS if build_generator(run).config.seed_free()
        ]
        assert seed_free == SEED_FREE_ARMS
        seeded = len(E12_RUNS) - len(seed_free)
        assert len(recorded) == len(seed_free) + seeded * len(seeds)

    def test_mutating_a_payload_leaves_the_next_hit_unchanged(self):
        run = E12_RUNS[0]
        assert run["arm"] == "sticky / constant"
        for seed in (0, 0, 1):
            params = {**run, "seed": seed}
            payload = run_dist_timeliness_kind(params)
            assert canonical_json(payload) == canonical_json(_fresh_payload(params))
            payload["set_bound"] = -1
            payload["messages"]["sent"] = -1
            payload["member_bounds"].clear()
            payload["timely_members"].append(99)

    def test_runs_differing_in_more_than_the_seed_share_nothing(self):
        run = E12_RUNS[0]
        for changes in ({}, {"horizon": 1_200}, {"threshold": 1}, {"p_set": [1]}):
            params = {**run, "seed": 5, **changes}
            payload = run_dist_timeliness_kind(params)
            assert canonical_json(payload) == canonical_json(_fresh_payload(params))

    def test_memo_never_grows_past_its_limit(self):
        limit = reduction._PAYLOAD_MEMO.limit
        sizes = []
        for interval in range(1, limit + 6):
            run_dist_timeliness_kind(
                {
                    "schedule": "dist-sticky-failover",
                    "n": 3,
                    "interval": interval,
                    "horizon": 50,
                    "p_set": [1, 2],
                    "q_set": [3],
                }
            )
            sizes.append(len(reduction._PAYLOAD_MEMO))
        assert sizes == [min(count, limit) for count in range(1, limit + 6)]
