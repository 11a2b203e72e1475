"""Tests for the analysis layer: reporting, timeliness matrices, metrics, experiments."""

import pytest

from repro.analysis.experiment import (
    run_experiment,
    separation_statements_experiment,
    solvability_map_experiment,
)
from repro.analysis.metrics import run_detector_experiment
from repro.analysis.reporting import ascii_table, bullet_list, format_cell, render_solvability_grid
from repro.analysis.timeliness_matrix import (
    best_set_witnesses,
    pairwise_timeliness,
    timely_sets_of_size,
)
from repro.core.schedule import Schedule
from repro.core.solvability import solvability_grid
from repro.schedules.round_robin import RoundRobinGenerator
from repro.schedules.set_timely import SetTimelyGenerator
from repro.types import AgreementInstance


class TestReporting:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(1.23456) == "1.235"
        assert format_cell(frozenset({2, 1})) == "{1,2}"
        assert format_cell((1, 2)) == "(1,2)"

    def test_ascii_table_structure(self):
        table = ascii_table(["a", "bb"], [[1, 2], [3, None]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("+-")
        assert "| a" in lines[2]
        assert table.count("|") == 9  # 3 separators per line, 3 content lines

    def test_render_solvability_grid(self):
        grid = solvability_grid(AgreementInstance(t=2, k=2, n=4))
        rendered = render_solvability_grid(grid, n=4)
        assert "S" in rendered and "." in rendered
        assert rendered.count("j=") == 4

    def test_bullet_list(self):
        assert bullet_list(["one", "two"]) == "  - one\n  - two"


class TestTimelinessMatrix:
    def test_pairwise_matrix(self):
        schedule = Schedule(steps=(1, 2, 3) * 30, n=3)
        matrix = pairwise_timeliness(schedule)
        assert matrix.bound(1, 2) <= 3
        assert matrix.most_timely_process() in {1, 2, 3}
        assert len(matrix.rows()) == 3

    def test_best_set_witnesses(self):
        schedule = Schedule(steps=(1, 3, 2, 3) * 30, n=3)
        witnesses = best_set_witnesses(schedule, [(1, 1), (1, 2)])
        assert set(witnesses) == {(1, 1), (1, 2)}
        assert witnesses[(1, 2)].bound <= 2
        assert witnesses[(1, 1)].bound <= 2
        assert len(witnesses[(1, 2)].p_set) == 1
        assert len(witnesses[(1, 2)].q_set) == 2

    def test_timely_sets_of_size(self):
        schedule = Schedule(steps=(1, 2, 3) * 30, n=3)
        assert len(timely_sets_of_size(schedule, 1, bound=3)) == 3
        lopsided = Schedule(steps=(1,) * 50 + (2,) * 50, n=3)
        assert timely_sets_of_size(lopsided, 1, bound=3) == []


class TestMetrics:
    def test_detector_report_fields(self):
        generator = RoundRobinGenerator(3)
        report = run_detector_experiment(generator, t=2, k=2, horizon=5_000)
        assert report.satisfied
        assert report.stabilized_early
        assert report.winner_contains_correct
        assert report.n == 3 and report.k == 2 and report.horizon == 5_000

    def test_horizon_validated(self):
        with pytest.raises(Exception):
            run_detector_experiment(RoundRobinGenerator(3), t=2, k=2, horizon=0)


class TestExperimentHarnesses:
    """Smoke tests with tiny parameters: the harnesses must run and produce
    well-formed rows; the full-size numbers live in EXPERIMENTS.md."""

    def test_figure1(self):
        headers, rows = run_experiment("e1", blocks=(2, 4))
        assert len(headers) == 5 and len(rows) == 2
        assert rows[0][4] <= 2  # the set bound stays 2

    def test_anti_omega_convergence(self):
        configs = [{"n": 3, "t": 2, "k": 2, "bound": 3, "crashes": frozenset()}]
        headers, rows = run_experiment("e2", configs=configs, horizon=8_000)
        assert len(rows) == 1
        assert rows[0][4] is True  # satisfied

    def test_agreement(self):
        configs = [
            {"n": 3, "t": 2, "k": 2, "crashes": frozenset()},
            {"n": 4, "t": 1, "k": 2, "crashes": frozenset()},
        ]
        headers, rows = run_experiment("e3", configs=configs, horizon=200_000)
        assert len(rows) == 2
        for row in rows:
            assert row[4] is True  # all correct decided
            assert row[6] is True  # valid

    def test_separation(self):
        headers, rows = run_experiment("e4", k=2, horizons=(10_000,))
        assert len(rows) == 2
        by_degree = {row[0]: row for row in rows}
        assert by_degree[2][5] is True   # degree k stabilizes early
        assert by_degree[1][5] is False  # degree k-1 keeps churning

    def test_solvability_map_and_statements(self):
        grids = solvability_map_experiment(problems=((2, 2, 4),))
        assert len(grids) == 1
        headers, rows = separation_statements_experiment(problems=((2, 2, 4),))
        assert all(row[3] is True for row in rows)

    def test_ablations_smoke(self):
        headers, rows = run_experiment("a1", horizon=12_000)
        assert {row[1] for row in rows} >= {"min", "max"}
        crashed_rows = {row[1]: row for row in rows if row[0] == "crashed-min-set"}
        assert crashed_rows["paper (t+1)-st smallest"][4] is True   # contains correct
        assert crashed_rows["min"][4] is False                       # min converges to the dead set
        headers, rows = run_experiment("a2", horizon=30_000, bound=200)
        assert len(rows) == 3
