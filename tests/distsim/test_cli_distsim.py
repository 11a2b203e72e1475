"""CLI and E12 coverage: `repro distsim`, the campaign, and the pinned witness.

The acceptance witness of the tentpole lives here: one concrete distsim
configuration where the replica *set* is timely with a small bound while no
individual replica is timely — set timeliness emerging from message
timeliness, exactly the paper's Figure 1 phenomenon, derived rather than
scripted.
"""

import pytest

from repro.analysis.experiment import (
    EXPERIMENT_REGISTRY,
    dist_emergence_campaign_spec,
    experiment,
    run_experiment,
)
from repro.cli import COMMANDS, run
from repro.distsim import run_dist_timeliness_kind, run_timeline, timeliness_report
from repro.errors import ConfigurationError
from repro.scenarios.spec import build_generator

E12_HEADERS = [
    "workload arm",
    "latency",
    "set bound {p1,p2}",
    "best member bound",
    "predicted bound",
    "max latency",
    "set timely",
    "timely members",
    "emerged",
]


class TestPinnedWitness:
    """The acceptance witness: set timely, no member timely, emergence."""

    def test_sticky_failover_emergence_is_pinned(self):
        params = {"schedule": "dist-sticky-failover", "n": 3, "seed": 0}
        timeline = run_timeline(build_generator(params), 800)
        report = timeliness_report(timeline, [1, 2], [3], threshold=8)
        # The set {1,2} is timely w.r.t. the coordinator with the minimal
        # possible bound...
        assert report.set_bound == 2
        assert report.set_timely
        # ...while sticky-doubling starvation keeps every member far above
        # any reasonable bound (the doubling eras grow without bound, so
        # these only worsen with the horizon).
        assert report.member_bounds == {1: 130, 2: 149}
        assert report.timely_members == ()
        assert report.emerged
        assert report.predicted == 3

    def test_round_robin_control_does_not_emerge(self):
        params = {
            "schedule": "dist-sticky-failover", "n": 3, "seed": 0,
            "balance": "round-robin",
        }
        timeline = run_timeline(build_generator(params), 800)
        report = timeliness_report(timeline, [1, 2], [3], threshold=8)
        assert report.set_timely
        assert report.timely_members == (1, 2)
        assert not report.emerged


class TestE12Adapter:
    def test_campaign_spec_shape(self):
        spec = dist_emergence_campaign_spec(horizon=800)
        assert spec.name == "dist-emergence"
        assert spec.kind == "dist-timeliness"
        assert len(spec.runs) == 6
        arms = [run_params["arm"] for run_params in spec.runs]
        assert arms == [
            "sticky / constant",
            "sticky / uniform",
            "sticky / pareto α=1.6",
            "sticky / pareto α=1.1",
            "round-robin / constant",
            "sticky / partitioned",
        ]

    def test_named_campaign_registry_knows_e12(self):
        spec = experiment("e12").build(horizon=800)
        assert spec.name == "dist-emergence"
        with pytest.raises(ConfigurationError, match="e12"):
            experiment("no-such-campaign")

    def test_table_shape_and_verdicts(self):
        headers, rows = run_experiment("e12", horizon=1200)
        assert headers == E12_HEADERS
        assert len(rows) == 6
        verdicts = {row[0]: (row[6], row[8]) for row in rows}
        # All four sticky latency arms emerge; the two controls do not.
        for arm in (
            "sticky / constant", "sticky / uniform",
            "sticky / pareto α=1.6", "sticky / pareto α=1.1",
        ):
            assert verdicts[arm] == (True, True), arm
        assert verdicts["round-robin / constant"] == (True, False)
        assert verdicts["sticky / partitioned"] == (False, False)


class TestCli:
    def test_listing_names_every_family_and_latency_model(self):
        lines = run(["distsim"])
        text = "\n".join(lines)
        for family in (
            "dist-heavy-tail", "dist-diurnal", "dist-correlated-failures",
            "dist-rolling-restart", "dist-sticky-failover",
        ):
            assert family in text
        assert "constant" in text and "pareto" in text

    def test_family_run_prints_censuses_and_report(self):
        lines = run(
            ["distsim", "dist-sticky-failover", "--horizon", "800"]
        )
        text = "\n".join(lines)
        assert "reduced schedule census" in text
        assert "message census" in text
        assert "set {1,2} w.r.t. {3}: minimal bound 2" in text
        assert "emerged: True" in text

    def test_family_run_accepts_set_overrides(self):
        lines = run(
            [
                "distsim", "dist-heavy-tail", "--horizon", "400", "--n", "4",
                "--set", "latency=uniform", "--p-set", "1", "2", "--q-set", "4",
            ]
        )
        assert any("set {1,2} w.r.t. {4}" in line for line in lines)

    def test_table_flag_prints_the_e12_table(self):
        lines = run(["distsim", "--table", "--horizon", "800"])
        text = "\n".join(lines)
        assert "E12" in text
        assert "sticky / pareto α=1.1" in text
        assert "round-robin / constant" in text

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--n", "5", "--p-set", "1", "--census", "10"], "--n, --p-set, --census"),
            (
                ["dist-heavy-tail", "--q-set", "3", "--set", "latency=uniform"],
                "a family name, --q-set, --set",
            ),
        ],
    )
    def test_table_rejects_single_workload_flags(self, repro_cli, extra, named):
        result = repro_cli("distsim", "--table", "--horizon", "400", *extra)
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith(
            f"repro: --table runs the fixed E12 sweep and does not accept {named};"
        )
        assert result.stdout == ""
        assert result.returncode == 1

    def test_campaign_e12(self):
        lines = run(["campaign", "e12", "--horizon", "800"])
        text = "\n".join(lines)
        assert EXPERIMENT_REGISTRY["e12"].title in text
        assert "sticky / constant" in text

    def test_scenarios_listing_includes_dist_families(self):
        lines = run(["scenarios"])
        text = "\n".join(lines)
        assert "dist-sticky-failover" in text

    def test_registry_entries_exist(self):
        # The epilog audit in tests/analysis/test_cli.py keys off this section.
        assert (
            COMMANDS["distsim"].section
            == "E12 — set-timeliness emergence from message timeliness (distsim)"
        )
        assert "e12" in EXPERIMENT_REGISTRY

    def test_queue_enqueue_e12(self, tmp_path):
        db = str(tmp_path / "e12.sqlite")
        lines = run(
            ["queue", "enqueue", "e12", "--db", db, "--horizon", "400"]
        )
        text = "\n".join(lines)
        assert "dist-emergence" in text
        assert "6 new job(s)" in text
        status = "\n".join(run(["queue", "status", "--db", db]))
        assert "pending=6" in status


class TestProcessIdsOutsidePi:
    """P and Q must name processes of Πn; an absent id would never step."""

    @pytest.mark.parametrize(
        "flags, named",
        [(["--q-set", "9"], "Q names processes [9]"),
         (["--p-set", "0", "1"], "P names processes [0]")],
    )
    def test_cli_prints_one_line_and_exits_1(self, repro_cli, flags, named):
        result = repro_cli(
            "distsim", "dist-sticky-failover", "--horizon", "200", *flags
        )
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("repro: timeliness report: "), lines[0]
        assert named in lines[0] and "Πn = {1..3}" in lines[0]
        assert result.stdout == ""
        assert result.returncode == 1

    def test_report_and_campaign_kind_reject_them(self):
        params = {"schedule": "dist-sticky-failover", "n": 3, "seed": 0}
        timeline = run_timeline(build_generator(params), 100)
        with pytest.raises(ConfigurationError, match=r"Q names processes \[4\]"):
            timeliness_report(timeline, [1, 2], [3, 4])
        kind_params = {**params, "horizon": 100, "p_set": [1, 5], "q_set": [3]}
        with pytest.raises(ConfigurationError, match=r"P names processes \[5\]"):
            run_dist_timeliness_kind(kind_params)


class TestHorizonBelowOne:
    """A timeline of zero steps measures nothing; the horizon must be >= 1."""

    @pytest.mark.parametrize(
        "argv, horizon",
        [
            (["distsim", "dist-heavy-tail"], "0"),
            (["distsim", "dist-heavy-tail"], "-3"),
            (["distsim", "--table"], "0"),
            (["campaign", "e12"], "0"),
        ],
    )
    def test_cli_prints_one_line_and_exits_1(self, repro_cli, argv, horizon):
        result = repro_cli(*argv, "--horizon", horizon)
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert lines == [f"repro: horizon must be >= 1, got {horizon}"], result.stderr
        assert result.stdout == ""
        assert result.returncode == 1

    def test_campaign_kind_rejects_it(self):
        params = {"schedule": "dist-sticky-failover", "n": 3, "seed": 0,
                  "p_set": [1, 2], "q_set": [1, 2, 3], "horizon": 0}
        with pytest.raises(ConfigurationError, match=r"horizon must be >= 1, got 0"):
            run_dist_timeliness_kind(params)
