"""Tests for the command-line interface (`python -m repro`)."""

import argparse
from pathlib import Path

import pytest

from repro import __version__
from repro.analysis.experiment import EXPERIMENT_REGISTRY
from repro.campaign import JobQueue
from repro.cli import COMMANDS, build_parser, run
from repro.errors import ConfigurationError
from repro.scenarios import available_families


def _every_subparser(parser):
    """(name, subparser) of every subcommand, nested ones as ``queue enqueue``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, subparser in action.choices.items():
                yield name, subparser
                for sub, nested in _every_subparser(subparser):
                    yield f"{name} {sub}", nested


class TestParser:
    def test_every_experiment_has_a_subcommand(self):
        parser = build_parser()
        help_text = parser.format_help()
        for name in COMMANDS:
            assert name in help_text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["does-not-exist"])


class TestCommands:
    def test_default_is_list(self):
        lines = run([])
        assert lines[0].startswith("available experiments")
        assert any("figure1" in line for line in lines)

    def test_list(self):
        lines = run(["list"])
        # Every subcommand but ``list`` itself, every campaign, two headings.
        assert len(lines) == len(COMMANDS) - 1 + len(EXPERIMENT_REGISTRY) + 2
        assert any("campaign" in line for line in lines)

    def test_figure1(self):
        lines = run(["figure1", "--blocks", "2", "4"])
        assert "bound {p1,p2} vs {q}" in lines[0]

    def test_map(self):
        lines = run(["map", "--t", "2", "--k", "2", "--n", "4"])
        output = "\n".join(lines)
        assert "Theorem 27 map" in output
        assert "S^2_{3,4}" in output          # matching system
        assert "frontier" in output

    def test_map_screen_batches_every_cell(self):
        """The grid's 10 cells screen in one call, one tracked run each."""
        lines = run(["map", "--screen", "--t", "2", "--k", "2", "--n", "4"])
        output = "\n".join(lines)
        assert "screened grid (one batched screen)" in output
        assert "screen lane: reference (10 cells batched)" in output

    def test_separations(self):
        lines = run(["separations"])
        assert "oracle consistent" in lines[0]

    def test_detector_small_horizon(self):
        lines = run(["detector", "--horizon", "8000"])
        assert "stabilization step" in lines[0]

    def test_solve_small_instance(self):
        lines = run(["solve", "--t", "2", "--k", "2", "--n", "3", "--max-steps", "200000"])
        output = "\n".join(lines)
        assert "satisfied: True" in output
        assert "decisions:" in output

    def test_solve_trivial_case(self):
        lines = run(["solve", "--t", "1", "--k", "2", "--n", "3", "--max-steps", "50000"])
        output = "\n".join(lines)
        assert "trivial" in output
        assert "satisfied: True" in output


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        # Guards both resolution paths — installed distribution metadata and
        # the source-tree pyproject.toml read — against drifting from
        # pyproject.toml, the single source of truth.
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.MULTILINE)
        assert match is not None
        assert __version__ == match.group(1)

    def test_version_resolves_on_first_access_and_is_cached(self):
        import repro

        assert repro.__version__ == __version__
        assert vars(repro)["__version__"] == __version__
        with pytest.raises(AttributeError):
            repro.no_such_attribute

    def test_version_flag_in_a_fresh_interpreter(self, repro_cli):
        done = repro_cli("--version")
        assert done.returncode == 0
        assert done.stdout == f"repro {__version__}\n"


class TestScenariosCommand:
    def test_listing_names_every_family(self):
        lines = run(["scenarios"])
        output = "\n".join(lines)
        for name in available_families():
            assert name in output
        assert "with_crashes" in output  # combinators are advertised too

    def test_run_one_family_prints_census_and_detector_tables(self):
        lines = run(
            [
                "scenarios",
                "crash-churn",
                "--n", "3",
                "--t", "1",
                "--k", "1",
                "--horizon", "3000",
                "--seed", "9",
                "--set", "period=32",
                "--set", "outage=8",
            ]
        )
        output = "\n".join(lines)
        assert "crash-recovery churn (period=32, outage=8" in output
        assert "schedule census" in output
        assert "k-anti-Ω on this scenario" in output

    def test_set_values_parse_lists_and_perturbations_apply(self):
        lines = run(
            [
                "scenarios",
                "spliced-adversary",
                "--n", "3",
                "--t", "1",
                "--k", "1",
                "--horizon", "2000",
                "--set", "carriers=1,2",
                "--set", "switch_at=500",
                "--perturb", "noise:0.05:3",
            ]
        )
        output = "\n".join(lines)
        assert "carriers=[1, 2]" in output
        assert "perturb(noise, rate=0.05, seed=3)" in output

    def test_set_n_override_drives_the_census(self):
        lines = run(
            ["scenarios", "round-robin", "--set", "n=6", "--horizon", "1000",
             "--t", "2", "--k", "2"]
        )
        output = "\n".join(lines)
        assert "round-robin over [1, 2, 3, 4, 5, 6]" in output
        assert "| 6       |" in output  # census covers the overridden Πn

    def test_empty_set_value_rejected_cleanly(self):
        with pytest.raises(ConfigurationError, match="KEY=VALUE"):
            run(["scenarios", "crash-churn", "--set", "period="])

    def test_single_valued_set_parameter_coerced_to_list(self):
        lines = run(
            [
                "scenarios",
                "carrier-rotation",
                "--n", "2",
                "--t", "1",
                "--k", "1",
                "--horizon", "1000",
                "--set", "carriers=1",
            ]
        )
        assert any("carriers=[1]" in line for line in lines)

    def test_bad_assignment_and_bad_perturbation_rejected(self):
        with pytest.raises(ConfigurationError):
            run(["scenarios", "crash-churn", "--set", "period"])
        with pytest.raises(ConfigurationError):
            run(["scenarios", "crash-churn", "--perturb", ""])
        with pytest.raises(ConfigurationError, match="numeric RATE"):
            run(["scenarios", "crash-churn", "--perturb", "noise:"])
        with pytest.raises(ConfigurationError, match="numeric RATE"):
            run(["scenarios", "crash-churn", "--perturb", "noise:0.1:x"])


class TestScenariosCampaign:
    def test_campaign_scenarios_small_horizon(self):
        lines = run(["campaign", "scenarios", "--horizon", "3000"])
        output = "\n".join(lines)
        assert "scenario family" in output
        assert "crash-recovery churn" in output
        assert "spliced adversarial suffix" in output


#: What every ``--help`` epilog says before the section it names.
EPILOG_PREFIX = "Documented in EXPERIMENTS.md, section: "


def _experiments_md_headings():
    """Every ``## `` heading of EXPERIMENTS.md, backticks removed."""
    text = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text(encoding="utf-8")
    return [
        line[3:].replace("`", "").strip() for line in text.splitlines() if line.startswith("## ")
    ]


class TestEpilogs:
    def test_every_subcommand_epilog_names_a_real_experiments_md_heading(self):
        # Every subcommand's --help points at the EXPERIMENTS.md section it
        # regenerates: the section named in the epilog contains one of the
        # document's ``## `` headings verbatim.  ``list`` names the whole index.
        headings = _experiments_md_headings()
        subcommands = dict(_every_subparser(build_parser()))
        assert "queue enqueue" in subcommands, "queue subcommands missing"
        for name, subparser in subcommands.items():
            assert subparser.epilog, f"subcommand {name!r} has no --help epilog"
            assert subparser.epilog.startswith(EPILOG_PREFIX), subparser.epilog
            assert subparser.epilog in subparser.format_help().replace("\n", " ")
            section = subparser.epilog[len(EPILOG_PREFIX):]
            if name == "list":
                assert section == "the artifact index (all sections)"
                continue
            assert any(heading in section for heading in headings), (
                f"subcommand {name!r} names {section!r}, which holds no "
                "EXPERIMENTS.md heading"
            )


class TestQueueCommands:
    def test_enqueue_work_status_roundtrip(self, tmp_path):
        db = str(tmp_path / "q.db")
        lines = run(["queue", "enqueue", "e1", "--db", db])
        assert "4 new job(s)" in lines[0]
        lines = run(["queue", "enqueue", "e1", "--db", db])  # idempotent
        assert "0 new job(s)" in lines[0]
        lines = run(["queue", "work", "--db", db, "--worker-id", "t1"])
        assert "completed 4" in lines[0]
        lines = run(["queue", "status", "--db", db])
        assert "done=4" in lines[0]

    def test_drain_completes_the_queue(self, tmp_path):
        db = str(tmp_path / "q.db")
        run(["queue", "enqueue", "e1", "--db", db])
        lines = run(["queue", "drain", "--db", db, "--workers", "2"])
        assert "0 death(s)" in lines[0]
        assert any("done=4" in line for line in lines)

    def test_missing_database_is_a_clean_error(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no queue database"):
            run(["queue", "status", "--db", str(tmp_path / "absent.db")])

    def test_chaos_flags_require_resume(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--resume"):
            run(["campaign", "e1", "--chaos-kills", "1"])

    def test_campaign_resume_resumes(self, tmp_path):
        db = str(tmp_path / "c.db")
        first = run(["campaign", "e1", "--resume", db, "--workers", "2"])
        assert any("4 new job(s)" in line for line in first)
        second = run(["campaign", "e1", "--resume", db])
        assert any("4 already done" in line for line in second)


#: One value per registry override flag, each unlike every entry's default.
OVERRIDE_FLAGS = [("--horizon", ["700"]), ("--seed", ["5"]), ("--k", ["3"]), ("--seeds", ["5", "7"])]


class TestOneOverrideRule:
    @pytest.mark.parametrize("flag, values", OVERRIDE_FLAGS)
    @pytest.mark.parametrize("name", list(EXPERIMENT_REGISTRY))
    def test_campaign_and_enqueue_apply_the_same_override(
        self, monkeypatch, tmp_path, name, flag, values
    ):
        # `repro campaign` and `repro queue enqueue` expand the same runs and
        # print the same notes.  A campaign takes exactly the overrides its
        # spec builder has a parameter for (a lone --horizon fills e4's
        # horizons axis); any other override is named in a "no effect" note
        # and leaves the runs unchanged — it is never dropped silently.
        import inspect

        from repro.campaign import CampaignEngine, CampaignResult, JobQueue

        specs = []

        def capture(engine, spec):
            specs.append(spec)
            return CampaignResult(spec=spec, records=[], elapsed=0.0, workers=1)

        monkeypatch.setattr(CampaignEngine, "run", capture)

        def keys_and_notes(argv):
            lines = run(argv)
            return [run_spec.key() for run_spec in specs.pop().expand()], [
                line for line in lines if line.startswith("note:")
            ]

        default_keys, _ = keys_and_notes(["campaign", name])
        campaign_keys, campaign_notes = keys_and_notes(["campaign", name, flag, *values])
        db = str(tmp_path / "q.db")
        enqueue_lines = run(["queue", "enqueue", name, "--db", db, flag, *values])
        with JobQueue(db) as queue:
            assert set(queue.attempts_by_key()) == set(campaign_keys)
        assert [line for line in enqueue_lines if line.startswith("note:")] == campaign_notes
        builder = inspect.signature(EXPERIMENT_REGISTRY[name].build).parameters
        takes = flag[2:] in builder or (flag == "--horizon" and "horizons" in builder)
        assert (campaign_keys == default_keys) != takes
        if takes:
            assert campaign_notes == []
        else:
            # A lone --seed on an entry with a seed axis points to --seeds.
            why = {
                "--horizon": "it has no step horizon",
                "--seed": "its seeds are an axis: use --seeds"
                if "seeds" in builder
                else "seeds are fixed by the artifact",
                "--k": "its degree is fixed by the artifact",
                "--seeds": "it has no seed axis",
            }[flag]
            assert campaign_notes == [f"note: {flag} has no effect on campaign {name!r} ({why})"]


class TestSearchCommand:
    def test_list_properties(self):
        lines = run(["search", "--list-properties"])
        output = "\n".join(lines)
        for name in ("k-anti-omega-convergence", "leader-set-convergence", "agreement-safety"):
            assert name in output

    def test_unknown_property_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown property 'no-such-claim'"):
            run(["search", "--property", "no-such-claim", "--smoke"])

    def test_smoke_search_reports_no_in_model_violations(self):
        lines = run(["search", "--smoke", "--generations", "2", "--seed", "3"])
        output = "\n".join(lines)
        assert "in-model violations: 0" in output
        assert "falsification attempts against k-anti-omega-convergence" in output

    def test_smoke_search_emits_a_regenerable_shrunk_finding(self):
        # The acceptance-criterion invocation, minus three generations for
        # speed: the full five-generation run is pinned by tests/search.
        lines = run(["search", "--property", "k-anti-omega-convergence",
                     "--generations", "3", "--smoke"])
        output = "\n".join(lines)
        assert "finding 1 [" in output
        assert "regenerate: repro search --property k-anti-omega-convergence" in output

    def test_search_jsonl_records(self, tmp_path):
        import json

        path = tmp_path / "search.jsonl"
        run(["search", "--smoke", "--generations", "2", "--jsonl", str(path)])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(record["record"] == "candidate" for record in records)

    def test_e11_table(self):
        lines = run(["search", "--table", "--generations", "2"])
        output = "\n".join(lines)
        assert "E11" in output
        assert "in-model violations" in output
        assert "agreement-safety" in output

    def test_table_rejects_single_search_flags(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError) as excinfo:
            run(["search", "--table", "--jsonl", "out.jsonl"])
        assert "--jsonl" in str(excinfo.value)
        with pytest.raises(ConfigurationError):
            run(["search", "--table", "--property", "agreement-safety"])
        with pytest.raises(ConfigurationError):
            run(["search", "--table", "--smoke"])

    def test_table_rejection_creates_no_cache_dir(self, tmp_path):
        cache_dir = tmp_path / "newcache"
        with pytest.raises(ConfigurationError, match="does not accept --smoke"):
            run(["search", "--table", "--smoke", "--cache-dir", str(cache_dir)])
        assert not cache_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--property", "nope"], "unknown property 'nope'"),
            (["--top", "-1"], "top must be >= 0"),
            (["--smoke", "--population", "0"], "population must be >= 1"),
        ],
    )
    def test_rejected_search_creates_no_cache_dir(self, tmp_path, flags, message):
        cache_dir = tmp_path / "newcache"
        with pytest.raises(ConfigurationError, match=message):
            run(["search", *flags, "--cache-dir", str(cache_dir)])
        assert not cache_dir.exists()

    @pytest.mark.parametrize("flags", [["--property", "nope"], ["--top", "-1"]])
    def test_cache_dir_that_is_a_file_wins_over_bad_search_values(self, tmp_path, flags):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        with pytest.raises(ConfigurationError, match="as a cache directory"):
            run(["search", *flags, "--cache-dir", str(not_a_dir)])

    @pytest.mark.parametrize("cache_first", [True, False])
    def test_cache_dir_that_is_a_file_wins_over_table_conflicts(self, tmp_path, cache_first):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        cache_flags = ["--cache-dir", str(not_a_dir)]
        conflict = ["--smoke"]
        flags = cache_flags + conflict if cache_first else conflict + cache_flags
        with pytest.raises(ConfigurationError, match="as a cache directory"):
            run(["search", "--table", *flags])

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--smoke", "--generations", "1", "--workers", "0"],
            ["campaign", "e1", "--workers", "0"],
        ],
    )
    def test_footer_prints_the_engines_worker_count(self, argv):
        # The engine clamps --workers 0 to one inline worker; the footer says so.
        assert run(argv)[-1] == "workers=1"

    def test_degenerate_horizon_rejected_cleanly(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run(["search", "--horizon", "1", "--generations", "2"])


class TestRejectedCampaign:
    """A rejected ``repro campaign`` leaves no cache directory and no queue database."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--workers", "-3"], "workers must be >= 0, got -3"),
            (["--resume", "{db}", "--workers", "-3"], "workers must be >= 0, got -3"),
            (["--chunk-size", "0"], "chunk_size must be >= 1, got 0"),
            (["--resume", "{db}", "--lease-seconds", "0"], "lease_seconds must be > 0"),
            (["--resume", "{db}", "--max-attempts", "0"], "max_attempts must be >= 1, got 0$"),
            (["--resume", "{db}", "--max-respawns", "-1"], "max_respawns must be >= 0, got -1"),
        ],
        ids=["workers", "resume-workers", "chunk-size", "lease", "attempts", "respawns"],
    )
    def test_creates_nothing(self, tmp_path, flags, message):
        cache_dir, db = tmp_path / "newcache", tmp_path / "q.db"
        argv = [flag.format(db=db) for flag in flags]
        with pytest.raises(ConfigurationError, match=message):
            run(["campaign", "e1", *argv, "--cache-dir", str(cache_dir)])
        assert not cache_dir.exists() and not db.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--workers", "-3"], ["--resume", "{db}", "--lease-seconds", "0"]],
        ids=["workers", "lease"],
    )
    def test_cache_dir_that_is_a_file_wins_over_bad_engine_values(self, tmp_path, flags):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        argv = [flag.format(db=tmp_path / "q.db") for flag in flags]
        with pytest.raises(ConfigurationError, match="as a cache directory"):
            run(["campaign", "e1", *argv, "--cache-dir", str(not_a_dir)])

    @pytest.mark.parametrize("flag", ["--lease-seconds", "--max-attempts"])
    def test_rejected_override_leaves_the_queue_usable(self, tmp_path, flag):
        db = str(tmp_path / "q.db")
        run(["queue", "enqueue", "e1", "--db", db, flag, "2"])
        with pytest.raises(ConfigurationError, match=flag[2:].replace("-", "_")):
            run(["campaign", "e1", "--resume", db, flag, "0"])
        assert run(["queue", "status", "--db", db])[0].startswith("queue: ")
        with JobQueue(db) as queue:
            assert (queue.lease_seconds, queue.max_attempts) == (
                (2.0, 3) if flag == "--lease-seconds" else (30.0, 2)
            )


class TestBadInstanceParameters:
    @pytest.mark.parametrize("command", ["map", "solve"])
    def test_bad_t_prints_one_line_like_search(self, repro_cli, command):
        # An out-of-range t is a ConfigurationError raised by the instance
        # itself, so the console entry point reports it as one line, exactly
        # like `repro search --t 5`, instead of a traceback.
        reference = repro_cli("search", "--t", "5")
        result = repro_cli(command, "--t", "5", "--k", "2", "--n", "4")
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro: "), result.stderr
        assert "resilience t" in lines[0]
        assert result.stdout == ""
        assert result.returncode == reference.returncode != 0

    @pytest.mark.parametrize(
        "assignments, bad_value",
        [(["p_set=x", "q_set=1"], "'x'"), (["p_set=[4,5]"], "'[4'")],
    )
    def test_bad_scenario_value_prints_one_line(self, repro_cli, assignments, bad_value):
        # A value the family builder cannot convert fails inside the builder
        # as a ValueError; build_scenario reports it as a ConfigurationError
        # naming the family and the value, so the CLI prints one line.
        argv = ["scenarios", "set-timely"]
        for assignment in assignments:
            argv += ["--set", assignment]
        result = repro_cli(*argv)
        lines = result.stderr.strip().splitlines()
        assert "Traceback" not in result.stderr
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("repro: scenario family 'set-timely' "), lines[0]
        assert bad_value in lines[0]
        assert result.stdout == ""
        assert result.returncode == 1


def _one_error_line(result):
    """The single ``repro: ...`` stderr line of a failed CLI run."""
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, result.stderr
    assert result.stdout == ""
    assert result.returncode == 1
    return lines[0]


class TestOneLineErrors:
    def test_bad_search_checkpoints(self, repro_cli):
        line = _one_error_line(repro_cli("search", "--checkpoints", "0"))
        assert line == "repro: checkpoints must be >= 1, got 0", line

    def test_report_on_a_missing_file(self, repro_cli, tmp_path):
        missing = tmp_path / "absent.jsonl"
        line = _one_error_line(repro_cli("report", "--jsonl", str(missing)))
        assert line == f"repro: cannot read {missing}: No such file or directory"

    @pytest.mark.parametrize(
        "command", ["detector", "campaign e2", "queue enqueue e2 --db {db}"]
    )
    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_detector_horizon_below_one(self, repro_cli, tmp_path, command, horizon):
        # A negative horizon used to reach the schedule compiler first and
        # print its "compile length" wording instead of the horizon's; the
        # queue used to enqueue it (or, for 0, the default horizon) silently.
        db = tmp_path / "q.db"
        argv = command.format(db=db).split()
        line = _one_error_line(repro_cli(*argv, "--horizon", horizon))
        assert line == f"repro: horizon must be >= 1, got {horizon}"
        assert not db.exists()  # rejected before anything was enqueued

    @pytest.mark.parametrize("command", ["agreement", "campaign e3"])
    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_agreement_horizon_below_one(self, repro_cli, command, horizon):
        # These used to reach the kernel's max_steps check and print its
        # SimulationError traceback.
        line = _one_error_line(repro_cli(*command.split(), "--horizon", horizon))
        assert line == f"repro: horizon must be >= 1, got {horizon}"

    def test_solve_max_steps_below_one(self, repro_cli):
        line = _one_error_line(
            repro_cli("solve", "--t", "2", "--k", "2", "--n", "4", "--max-steps", "0")
        )
        assert line == "repro: max_steps must be >= 1, got 0"

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_screened_map_horizon_below_one(self, repro_cli, horizon):
        # This used to clamp every cell's prefix to two steps and silently
        # render a table.
        line = _one_error_line(
            repro_cli("map", "--t", "2", "--k", "2", "--n", "4", "--screen",
                      "--horizon", horizon)
        )
        assert line == f"repro: horizon must be >= 1, got {horizon}"

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_separation_degree_below_two(self, repro_cli, k):
        # This used to print separation_campaign_spec's ValueError traceback.
        line = _one_error_line(repro_cli("separation", "--k", k))
        assert line == (
            f"repro: the separation experiment needs k >= 2 so that k-1 >= 1, got k={k}"
        )

    def test_detector_kind_checks_the_horizon_before_compiling(self):
        from repro.campaign.runner import run_detector_kind
        from repro.errors import ConfigurationError

        params = {"family": "set-timely", "n": 3, "p_set": [1], "q_set": [1, 2],
                  "bound": 3, "seed": 1, "t": 1, "k": 1, "horizon": -5}
        with pytest.raises(ConfigurationError, match=r"horizon must be >= 1, got -5"):
            run_detector_kind(params)


#: One bad value per subcommand: (argv, how ``run`` rejects it).  ``config``
#: is a library ConfigurationError that ``main`` prints as one ``repro: ...``
#: line; ``usage`` is argparse's own exit (status 2, one ``error:`` line after
#: the usage text), for commands that take no value a library could reject.
BAD_ARGUMENTS = {
    "list": (["list", "--bogus"], "usage"),
    "figure1": (["figure1", "--blocks", "-1"], "config"),
    "detector": (["detector", "--horizon", "0"], "config"),
    "agreement": (["agreement", "--horizon", "-3"], "config"),
    "separation": (["separation", "--k", "1"], "config"),
    "ablation-accusation": (["ablation-accusation", "--horizon", "0"], "usage"),
    "ablation-timeout": (["ablation-timeout", "--horizon", "0"], "config"),
    "map": (["map", "--t", "5", "--k", "2", "--n", "4"], "config"),
    "separations": (["separations", "--bogus"], "usage"),
    "scenarios": (["scenarios", "no-such-family"], "config"),
    "scenarios (assignment without a value)": (["scenarios", "crash-churn", "--set", "period"], "config"),
    "scenarios (perturbation without a kind)": (["scenarios", "crash-churn", "--perturb", ""], "config"),
    "scenarios (non-numeric perturbation rate)": (
        ["scenarios", "crash-churn", "--perturb", "noise:x"],
        "config",
    ),
    "solve": (["solve", "--t", "2", "--k", "2", "--n", "4", "--max-steps", "0"], "config"),
    "search": (["search", "--property", "nope"], "config"),
    "search (table with a single-search flag)": (["search", "--table", "--smoke"], "config"),
    "search (negative top)": (["search", "--top", "-1"], "config"),
    "search (zero certify bound)": (["search", "--certify-bound", "0"], "config"),
    "search (cache dir is a file)": (["search", "--smoke", "--cache-dir", "{not_json}"], "config"),
    "distsim": (["distsim", "no-such-family"], "config"),
    "distsim (table with a single-workload flag)": (["distsim", "--table", "--n", "3"], "config"),
    "distsim (one process leaves the default P empty)": (
        ["distsim", "dist-heavy-tail", "--n", "1"],
        "config",
    ),
    "campaign": (["campaign", "e2", "--horizon", "0"], "config"),
    "campaign (cache dir is a file)": (["campaign", "e1", "--cache-dir", "{not_json}"], "config"),
    "queue enqueue": (["queue", "enqueue", "e2", "--db", "{db}", "--horizon", "0"], "config"),
    "queue work": (["queue", "work", "--db", "{db}"], "config"),
    "queue status": (["queue", "status", "--db", "{db}"], "config"),
    "queue drain": (["queue", "drain", "--db", "{db}"], "config"),
    "queue drain (negative respawn budget)": (
        ["queue", "drain", "--db", "{queue_db}", "--max-respawns", "-1"], "config"
    ),
    "queue drain (cache dir is a file)": (
        ["queue", "drain", "--db", "{queue_db}", "--cache-dir", "{not_json}"],
        "config",
    ),
    "report": (["report", "--jsonl", "{not_json}"], "config"),
    "report (record without index)": (["report", "--jsonl", "{no_index}"], "config"),
}


def _subcommand_names():
    """Every leaf subcommand of ``build_parser()``, ``queue`` subcommands included."""
    return {name for name, _ in _every_subparser(build_parser()) if name != "queue"}


class TestBadArguments:
    """Every subcommand rejects a bad value with one error line, never a traceback."""

    @pytest.fixture
    def bad_argv(self, tmp_path):
        not_json = tmp_path / "hostname"
        not_json.write_text("not-a-record\n")
        no_index = tmp_path / "no-index.jsonl"
        no_index.write_text('{"a":1}\n')
        queue_db = tmp_path / "queue.db"
        JobQueue(queue_db).close()
        paths = {
            "db": tmp_path / "absent.db",
            "queue_db": queue_db,
            "not_json": not_json,
            "no_index": no_index,
        }

        def expand(case):
            argv, how = BAD_ARGUMENTS[case]
            return [part.format(**paths) for part in argv], how

        return expand

    def test_every_subcommand_has_a_case(self):
        assert _subcommand_names() == {case.split(" (")[0] for case in BAD_ARGUMENTS}

    @pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
    def test_main_exits_with_one_line(self, case, bad_argv, capsys):
        from repro.cli import main

        argv, how = bad_argv(case)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        if how == "config":
            message = str(excinfo.value)
            assert message.startswith("repro: ") and "\n" not in message, message
            assert stderr == ""
        else:
            assert excinfo.value.code == 2
            errors = [line for line in stderr.splitlines() if ": error: " in line]
            assert errors == stderr.strip().splitlines()[-1:], stderr

    @pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
    def test_run_raises_configuration_error_or_usage_exit(self, case, bad_argv):
        from repro.errors import ConfigurationError

        argv, how = bad_argv(case)
        if how == "config":
            with pytest.raises(ConfigurationError):
                run(argv)
        else:
            with pytest.raises(SystemExit) as excinfo:
                run(argv)
            assert excinfo.value.code == 2

    def test_malformed_record_file_names_the_file_and_line(self, tmp_path):
        from repro.errors import ConfigurationError

        path = tmp_path / "runs.jsonl"
        record = '{"index": 0, "key": "k", "kind": "x", "params": {}, "payload": {}}'
        path.write_text(f"\n{record}\n{{\"a\":1}}\n")
        with pytest.raises(ConfigurationError, match=r"runs\.jsonl, line 3: .*'index'"):
            run(["report", "--jsonl", str(path)])
