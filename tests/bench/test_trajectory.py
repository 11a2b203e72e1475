"""The benchmark trajectory: file round-trips, regression gate, CLI wiring.

The actual measurement suites run in CI (``repro bench --smoke``) and in
``benchmarks/``; these tests pin the machinery around them — document shape,
the ratio-based regression check, markdown rendering, and the committed
baseline files at the repository root — without re-measuring anything slow.
"""

import json
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_CAMPAIGN_FILENAME,
    BENCH_KERNEL_FILENAME,
    check_regression,
    load_trajectory,
    machine_info,
    performance_markdown,
)
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def committed_trajectory():
    return load_trajectory(REPO_ROOT)


class TestCommittedBaseline:
    def test_trajectory_files_are_committed_at_repo_root(self):
        assert (REPO_ROOT / BENCH_KERNEL_FILENAME).exists()
        assert (REPO_ROOT / BENCH_CAMPAIGN_FILENAME).exists()

    def test_kernel_document_shape_and_headline_win(self, committed_trajectory):
        kernel_doc, _ = committed_trajectory
        assert kernel_doc["suite"] == "kernel"
        assert {"platform", "python", "cpu_count"} <= set(kernel_doc["machine"])
        for workload in ("floor", "fresh-ops", "bound-ops"):
            cases = kernel_doc["workloads"][workload]
            for case in (
                "instrumented",
                "fast-stream",
                "fast-compiled",
                "fast-stream-bare",
                "batch-compiled-bare",
            ):
                assert cases[case]["ns_per_step"] > 0
                assert cases[case]["speedup_vs_instrumented"] > 0
        # The acceptance bars pinned by the batched-execution and
        # slot-addressed-pipeline PRs: >= 2x batched-vs-per-run on the floor
        # workload, >= 1.5x on the fresh-operation workload.
        assert kernel_doc["headline"]["batched_vs_fast_stream"] >= 2.0
        assert kernel_doc["headline"]["fresh_ops_batched_vs_fast_stream"] >= 1.5

    def test_campaign_document_shape(self, committed_trajectory):
        _, campaign_doc = committed_trajectory
        assert campaign_doc["suite"] == "campaign"
        assert campaign_doc["payloads_identical"] is True
        for name, case in campaign_doc["cases"].items():
            assert case["seconds"] > 0 and case["ns_per_step"] > 0, name
        assert campaign_doc["headline"]["batched_vs_stream"] > 1.0

    def test_retired_screen_headlines_are_gone(self, committed_trajectory):
        # The column screen and the search-eval auto planner left with their
        # lanes: every search candidate is one tracked run now.
        kernel_doc, campaign_doc = committed_trajectory
        assert "vector_screen_vs_reference_screen" not in kernel_doc["headline"]
        assert "screen" not in kernel_doc
        assert "search_eval_auto_vs_python" not in campaign_doc["headline"]
        assert "search_eval_payloads_identical" not in campaign_doc

class TestRegressionCheck:
    def test_committed_baseline_passes_against_itself(self, committed_trajectory):
        kernel_doc, campaign_doc = committed_trajectory
        assert check_regression(kernel_doc, campaign_doc, REPO_ROOT) == []

    def test_ratio_regression_beyond_tolerance_fails(self, committed_trajectory, tmp_path):
        kernel_doc, campaign_doc = committed_trajectory
        regressed = json.loads(json.dumps(kernel_doc))
        regressed["headline"]["batched_vs_fast_stream"] = (
            kernel_doc["headline"]["batched_vs_fast_stream"] * 0.5
        )
        failures = check_regression(regressed, campaign_doc, REPO_ROOT)
        assert len(failures) == 1 and "kernel headline" in failures[0]

    def test_small_wobble_within_tolerance_passes(self, committed_trajectory):
        kernel_doc, campaign_doc = committed_trajectory
        wobbly = json.loads(json.dumps(kernel_doc))
        wobbly["headline"]["batched_vs_fast_stream"] = (
            kernel_doc["headline"]["batched_vs_fast_stream"] * 0.9
        )
        assert check_regression(wobbly, campaign_doc, REPO_ROOT) == []

    def test_fresh_ops_headline_regression_fails(self, committed_trajectory):
        kernel_doc, campaign_doc = committed_trajectory
        regressed = json.loads(json.dumps(kernel_doc))
        regressed["headline"]["fresh_ops_batched_vs_fast_stream"] = (
            kernel_doc["headline"]["fresh_ops_batched_vs_fast_stream"] * 0.5
        )
        failures = check_regression(regressed, campaign_doc, REPO_ROOT)
        assert len(failures) == 1
        assert "fresh_ops_batched_vs_fast_stream" in failures[0]

    def test_headline_key_missing_from_baseline_is_skipped(
        self, committed_trajectory, tmp_path
    ):
        # A baseline from before a headline was promoted cannot gate it; the
        # first regenerated baseline that records the key starts the gate.
        from repro.bench import compare_trajectories

        kernel_doc, campaign_doc = committed_trajectory
        old_baseline = json.loads(json.dumps(kernel_doc))
        del old_baseline["headline"]["fresh_ops_batched_vs_fast_stream"]
        fresh = json.loads(json.dumps(kernel_doc))
        fresh["headline"]["fresh_ops_batched_vs_fast_stream"] = 0.1
        assert compare_trajectories(fresh, campaign_doc, old_baseline, campaign_doc) == []

    def test_payload_divergence_fails(self, committed_trajectory):
        kernel_doc, campaign_doc = committed_trajectory
        broken = json.loads(json.dumps(campaign_doc))
        broken["payloads_identical"] = False
        failures = check_regression(kernel_doc, broken, REPO_ROOT)
        assert any("payloads differ" in failure for failure in failures)

class TestReporting:
    def test_markdown_tables_render_from_trajectory(self, committed_trajectory):
        kernel_doc, campaign_doc = committed_trajectory
        markdown = performance_markdown(kernel_doc, campaign_doc)
        assert "| batch-compiled-bare |" in markdown
        assert "| campaign-batched |" in markdown
        assert "Headline:" in markdown
        assert "Fresh-ops headline:" in markdown
        assert "bound-ops ns/step" in markdown

    def test_machine_info_is_json_serializable(self):
        info = machine_info()
        assert json.dumps(info)
        assert info["cpu_count"] >= 1


class TestCliWiring:
    def test_bench_subcommand_parses_all_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["bench", "--smoke", "--out", "somewhere", "--check", "baseline"]
        )
        assert args.smoke and args.out == "somewhere" and args.check == "baseline"
        args = parser.parse_args(["bench", "--check"])
        assert args.check == "."
        args = parser.parse_args(["bench"])
        assert args.check is None and args.out == "." and args.workload is None
        args = parser.parse_args(
            ["bench", "--workload", "fresh-ops", "--workload", "bound-ops"]
        )
        assert args.workload == ["fresh-ops", "bound-ops"]

    def test_workload_filter_rejects_check_and_markdown(self):
        from repro.cli import run

        with pytest.raises(SystemExit):
            run(["bench", "--workload", "floor", "--check", "."])
        with pytest.raises(SystemExit):
            run(["bench", "--workload", "floor", "--markdown"])

    def test_unknown_workload_rejected(self):
        from repro.bench import bench_kernel
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown workload"):
            bench_kernel(smoke=True, workloads=["nope"])

    def test_bench_markdown_renders_committed_trajectory(self):
        from repro.cli import run

        lines = run(["bench", "--markdown", "--out", str(REPO_ROOT)])
        assert "| batch-compiled-bare |" in lines[0]
