"""The timeline→schedule reduction at its edges.

That compiling a distsim workload through the generator and reducing its
recorded timeline (``compile_timeline(run_timeline(...))``) give the same
buffer, prefixes and crash hints is pinned by
``tests/conformance/test_timeline_conformance.py``; that the reduced buffer
drives every replica kind exactly like the generator's per-step stream is
the ``timeline`` lane of ``tests/conformance/test_lane_table.py``.
"""

import pytest

from repro.core.schedule import CompiledSchedule
from repro.distsim import compile_timeline, run_timeline, timeliness_report
from repro.errors import ConfigurationError
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
