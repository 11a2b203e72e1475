"""Tests for the falsify → shrink → certify search engine."""

import dataclasses
import json

import pytest

from repro.campaign import CampaignEngine, ResultCache
from repro.campaign.runner import _KINDS
from repro.campaign.spec import RunSpec
from repro.campaign import execute_spec
from repro.errors import ConfigurationError
from repro.runtime.simulator import Simulator
from repro.search import (
    IN_MODEL_VIOLATION,
    NEAR_MISS,
    OUT_OF_MODEL_VIOLATION,
    SearchConfig,
    certify_schedule,
    generation_recipes,
    generation_spec,
    make_property,
    make_recipe,
    realize,
    recipe_signature,
    run_search,
    search_report_lines,
    seed_recipes,
)
from repro.search.engine import (
    EvaluatedCandidate,
    _shrink_findings,
    screen_cache_stats,
)
from repro.search.prefix import plan_prefix_runs
from repro.search.properties import (
    PROPERTY_CLASSES,
    KAntiOmegaConvergenceProperty,
    PropertyVerdict,
)


@pytest.fixture()
def tracked_runs(monkeypatch):
    """Counts ``Simulator.run_fast`` calls: one per tracked run."""
    runs = []
    original = Simulator.run_fast

    def counting(self, *args, **kwargs):
        runs.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run_fast", counting)
    return runs


def fingerprint(report):
    """Everything deterministic about a report (timings excluded)."""
    return json.dumps(
        {
            "candidates": [
                (c.generation, c.signature, c.fitness, c.screen_violated,
                 c.confirmed_violated, c.in_model)
                for c in report.candidates
            ],
            "findings": [
                (f.kind, list(f.schedule.steps), dict(f.schedule.crash_steps),
                 f.certificate.reason)
                for f in report.findings
            ],
        },
        sort_keys=True,
    )


class TestConfig:
    def test_unknown_property_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchConfig(property="no-such-claim")

    def test_unknown_fitness_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchConfig(fitness="vibes")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("top", -1),
            ("eval_chunk", 0),
            ("shrink_max_evaluations", 0),
            ("certify_bound", 0),
            ("certify_bound", -3),
            ("certify_prefix", 0),
            ("certify_prefix", -1),
        ],
    )
    def test_out_of_range_counts_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value", [("certify_bound", 1), ("certify_prefix", 1), ("eval_chunk", None)]
    )
    def test_smallest_allowed_values_are_accepted(self, field, value):
        assert getattr(SearchConfig(**{field: value}), field) == value

    def test_zero_top_is_accepted(self):
        assert SearchConfig(top=0).top == 0

    def test_certify_bound_defaults_to_four_times_the_seed_bound(self):
        assert SearchConfig(bound=3).resolved_certify_bound() == 12
        assert SearchConfig(bound=3, certify_bound=7).resolved_certify_bound() == 7

    def test_command_round_trips_the_smoke_flags(self):
        config = SearchConfig.smoke_config("agreement-safety", generations=4, seed=9)
        command = config.command()
        assert "--property agreement-safety" in command
        assert "--generations 4" in command
        assert "--seed 9" in command
        assert "--smoke" in command


class TestPopulations:
    def test_seed_recipes_cover_in_model_and_adversarial_bases(self):
        config = SearchConfig.smoke_config("k-anti-omega-convergence")
        families = [recipe["base"]["schedule"] for recipe in seed_recipes(config)]
        assert "set-timely" in families
        assert "carrier-rotation" in families
        assert "alternating-epochs" in families

    def test_generation_zero_is_deterministic_and_sized(self):
        config = SearchConfig.smoke_config("k-anti-omega-convergence")
        first = generation_recipes(config, 0, [])
        second = generation_recipes(config, 0, [])
        assert first == second
        assert len(first) == config.population

    def test_later_generations_carry_elites_verbatim(self):
        config = SearchConfig.smoke_config("k-anti-omega-convergence")
        elites = generation_recipes(config, 0, [])[: config.elites]
        population = generation_recipes(config, 1, elites)
        assert population[: config.elites] == elites
        assert len(population) == config.population


class TestSmokeSearch:
    @pytest.fixture(scope="class")
    def smoke_report(self):
        config = SearchConfig.smoke_config("k-anti-omega-convergence", generations=5, seed=0)
        return run_search(config)

    def test_acceptance_invariants(self, smoke_report):
        # The headline the E11 table and the atlas pin: no in-model
        # violations, and at least one shrunk out-of-model/near-miss finding.
        assert smoke_report.in_model_violation_count() == 0
        assert smoke_report.findings
        assert any(f.certificate.in_model is False for f in smoke_report.findings)

    def test_deterministic_across_runs(self, smoke_report):
        config = SearchConfig.smoke_config("k-anti-omega-convergence", generations=5, seed=0)
        assert fingerprint(run_search(config)) == fingerprint(smoke_report)

    def test_findings_are_shrunk_and_consistent(self, smoke_report):
        for finding in smoke_report.findings:
            assert finding.shrunk_length <= finding.original_length
            steps = list(finding.schedule.steps)
            for pid, crash_at in finding.schedule.crash_steps.items():
                assert all(step != pid for step in steps[crash_at:])

    def test_report_lines_name_the_regenerating_command(self, smoke_report):
        text = "\n".join(search_report_lines(smoke_report))
        assert "in-model violations: 0" in text
        assert "repro search --property k-anti-omega-convergence" in text
        assert "--smoke" in text

    def test_jsonl_records(self, smoke_report, tmp_path):
        from repro.search import write_search_jsonl

        path = tmp_path / "search.jsonl"
        write_search_jsonl(smoke_report, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {record["record"] for record in records}
        assert kinds == {"candidate", "finding"}
        findings = [r for r in records if r["record"] == "finding"]
        assert all("regenerate" in r and r["steps"] for r in findings)


class TestCampaignIntegration:
    def test_pooled_and_cached_runs_match_serial(self, tmp_path):
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence", generations=2, seed=3
        )
        serial = fingerprint(run_search(config))
        cache = ResultCache(tmp_path / "cache")
        with CampaignEngine(workers=2, cache=cache) as engine:
            pooled = fingerprint(run_search(config, engine=engine))
            resumed = run_search(config, engine=engine)
        assert pooled == serial
        assert fingerprint(resumed) == serial
        # Every generation of the second run is served from the cache.
        assert all(stats.cached_runs > 0 for stats in resumed.generations)

    def test_search_eval_kind_resolves_lazily(self):
        spec = RunSpec.create(
            "search-eval",
            {
                "property": "k-anti-omega-convergence",
                "property_params": {"n": 4, "t": 2, "k": 2},
                "fitness": "stabilization-delay",
                "checkpoints": 4,
                "near_miss_threshold": 0.8,
                "certify_bound": 12,
                "certify_prefix": None,
                "recipes": [
                    {
                        "base": {"schedule": "round-robin", "n": 4},
                        "horizon": 200,
                        "mutations": [],
                    }
                ],
            },
        )
        removed = _KINDS.pop("search-eval")
        try:
            payload = execute_spec(spec)
        finally:
            _KINDS.setdefault("search-eval", removed)
        assert len(payload["results"]) == 1
        assert payload["results"][0]["length"] == 200


class _AlwaysViolated(KAntiOmegaConvergenceProperty):
    """Stub: 'violated whenever process 1 takes at least ten steps'.

    Exercises the violation branch (classification + confirm-predicate
    shrinking) that the real detector — correctly — never reaches at smoke
    scale.
    """

    name = "stub-always-violated"

    def _verdict(self, compiled, mode):
        count = sum(1 for step in compiled.steps if step == 1)
        violated = count >= 10
        return PropertyVerdict(
            property_name=self.name,
            violated=violated,
            fitness=1.0 if violated else 0.0,
            mode=mode,
            details={"count": count, "all_correct_produced": True},
        )

    def judge_screen(self, snapshots, compiled):
        return self._verdict(compiled, "screen")

    def judge_confirm(self, trackers, compiled):
        return self._verdict(compiled, "confirm")


class TestViolationPath:
    @pytest.fixture()
    def stub_property(self):
        PROPERTY_CLASSES[_AlwaysViolated.name] = _AlwaysViolated
        try:
            yield _AlwaysViolated.name
        finally:
            PROPERTY_CLASSES.pop(_AlwaysViolated.name, None)

    def test_violations_are_classified_and_shrunk(self, stub_property):
        config = SearchConfig.smoke_config(
            stub_property, generations=1, population=5, top=2, seed=1
        )
        report = run_search(config)
        confirmed = [c for c in report.candidates if c.confirmed_violated]
        assert confirmed, "the stub property must produce confirmed violations"
        for candidate in confirmed:
            assert candidate.classification() in (
                IN_MODEL_VIOLATION,
                OUT_OF_MODEL_VIOLATION,
            )
        assert report.findings
        for finding in report.findings:
            assert finding.kind in (IN_MODEL_VIOLATION, OUT_OF_MODEL_VIOLATION)
            # The shrunk reproducer still violates: ten steps of process 1 is
            # the stub's minimal core, and cert-side preservation held.
            count = sum(1 for step in finding.schedule.steps if step == 1)
            assert count >= 10
            assert (finding.kind == IN_MODEL_VIOLATION) == finding.certificate.in_model

    def test_near_misses_are_only_reported_without_violations(self, stub_property):
        config = SearchConfig.smoke_config(
            stub_property, generations=1, population=5, top=2, seed=1
        )
        report = run_search(config)
        assert all(f.kind != NEAR_MISS for f in report.findings)


    def test_shrinks_replay_a_trial_once_per_content(self, stub_property, tracked_runs):
        # Crashing p1 at 41 or at 42 of a round robin leaves equal buffers
        # (p1 steps at 40 and 44): the findings differ only in crash steps,
        # and every trial of the second shrink is one the first already ran.
        config = SearchConfig.smoke_config(stub_property, top=2, seed=1)
        prop = make_property(config.property, config.property_params())
        i, j = prop.certification_sizes()

        def finding(at):
            recipe = make_recipe(
                {"schedule": "round-robin", "n": 4}, 80, [{"op": "crash", "pid": 1, "at": at}]
            )
            compiled = realize(recipe)
            certificate = certify_schedule(
                compiled,
                i,
                j,
                certify_bound=config.resolved_certify_bound(),
                max_faulty=prop.t,
                prefix_length=config.certify_prefix,
            )
            return EvaluatedCandidate(
                generation=0,
                recipe=recipe,
                signature=recipe_signature(recipe),
                description="crash of p1",
                length=len(compiled),
                faulty=(1,),
                fitness=1.0,
                screen_violated=True,
                screen_details={},
                confirmed_violated=True,
                confirmed_details={},
                certificate=certificate.to_payload(),
            )

        alone = _shrink_findings(config, [finding(41)])
        single = len(tracked_runs)
        assert single > 2
        del tracked_runs[:]
        both = _shrink_findings(config, [finding(41), finding(42)])
        # The second finding runs only its unshrunk input and its final confirm.
        assert len(tracked_runs) == single + 2
        assert both[0].evaluations == both[1].evaluations == alone[0].evaluations
        for shrunk in both:
            assert shrunk.schedule.steps == alone[0].schedule.steps
            assert shrunk.schedule.crash_steps == alone[0].schedule.crash_steps


class TestShrinkSelection:
    def test_a_near_miss_its_predicate_rejects_yields_to_the_next(self):
        # The top-ranked near-miss here, set-timely ∘ silence, reaches fitness
        # 1.0 with a correct process that never produced output, so the
        # near-miss shrink predicate rejects it unshrunk.
        config = SearchConfig(generations=1, population=8, horizon=200, seed=1)
        report = run_search(config)
        silent = {
            c.signature
            for c in report.near_misses()
            if not c.screen_details["all_correct_produced"]
        }
        assert silent
        assert [f.kind for f in report.findings] == [NEAR_MISS]
        assert recipe_signature(report.findings[0].recipe) not in silent


class TestGenerationRuns:
    """How a generation becomes ``search-eval`` runs (one per engine worker)."""

    @pytest.mark.parametrize(
        "population, workers, sizes",
        [(16, 1, [16]), (16, 2, [8, 8]), (16, 3, [6, 6, 4]), (10, 2, [5, 5])],
    )
    def test_default_runs_are_contiguous_and_one_per_worker(self, population, workers, sizes):
        config = SearchConfig(population=population)
        recipes = generation_recipes(config, 0, [])
        runs = generation_spec(config, 0, recipes, workers).runs
        assert [len(run["recipes"]) for run in runs] == sizes
        assert [recipe for run in runs for recipe in run["recipes"]] == recipes

    def test_explicit_eval_chunk_fixes_the_run_size(self):
        config = SearchConfig(population=10, eval_chunk=4)
        recipes = generation_recipes(config, 0, [])
        for workers in (1, 2):
            runs = generation_spec(config, 0, recipes, workers).runs
            assert [len(run["recipes"]) for run in runs] == [4, 4, 2]

    def test_search_gives_each_engine_worker_one_run(self, monkeypatch):
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence", generations=1, horizon=300, top=0
        )
        sizes = []
        with CampaignEngine(workers=2) as engine:
            run = engine.run

            def recording(spec):
                sizes.append([len(params["recipes"]) for params in spec.runs])
                return run(spec)

            monkeypatch.setattr(engine, "run", recording)
            run_search(config, engine=engine)
        assert sizes == [[5, 5]]

    def test_default_generation_zero_screens_with_resumed_runs(self):
        # The `repro search` defaults at seed 0: no two candidates of any
        # four in recipe order share a snapshot-worthy prefix, but the whole
        # generation does, so one run per worker is what lets it resume.
        config = SearchConfig(generations=1, top=0, seed=0)
        (run,) = generation_spec(config, 0, generation_recipes(config, 0, [])).runs
        plan = plan_prefix_runs([realize(recipe).steps for recipe in run["recipes"]])
        assert len(plan.order) == config.population
        assert any(plan.resume)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_eval_chunk_leaves_the_report_unchanged(self, workers):
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence", generations=2, horizon=900, top=1, seed=2
        )
        prints = set()
        with CampaignEngine(workers=workers) as engine:
            for chunk in (None, 1, 4):
                chunked = dataclasses.replace(config, eval_chunk=chunk)
                prints.add(fingerprint(run_search(chunked, engine=engine)))
        assert len(prints) == 1


def _dispatched_recipes(engine, monkeypatch):
    """Records each ``engine.run``'s recipes by generation (from the spec name)."""
    dispatched = {}
    run = engine.run

    def recording(spec):
        generation = int(spec.name.rsplit("-g", 1)[1])
        dispatched[generation] = [
            recipe for params in spec.runs for recipe in params["recipes"]
        ]
        return run(spec)

    monkeypatch.setattr(engine, "run", recording)
    return dispatched


class TestCarriedElites:
    """Elites carry their evaluations forward; only fresh recipes run."""

    def test_stats_count_carried_and_screened_candidates(self, monkeypatch):
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence", generations=3, horizon=600, top=0, seed=1
        )
        before = screen_cache_stats()
        with CampaignEngine() as engine:
            dispatched = _dispatched_recipes(engine, monkeypatch)
            report = run_search(config, engine=engine)
        after = screen_cache_stats()
        assert after["hits"] - before["hits"] == 2 * config.elites
        assert after["misses"] - before["misses"] == 3 * config.population - 2 * config.elites
        for generation in (1, 2):
            previous = [c for c in report.candidates if c.generation == generation - 1]
            ranked = sorted(previous, key=lambda c: (-c.fitness, c.signature))
            elites = list(dict.fromkeys(c.signature for c in ranked))[: config.elites]
            current = [c for c in report.candidates if c.generation == generation]
            assert [c.signature for c in current[: config.elites]] == elites
            sent = [recipe_signature(recipe) for recipe in dispatched[generation]]
            assert len(sent) == config.population - config.elites
            assert not set(sent) & set(elites)

    def test_pooled_search_counts_like_an_inline_one(self):
        """Screened candidates count in the searching process, not in a worker."""
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence", generations=3, horizon=600, top=0, seed=1
        )
        counts = []
        for workers in (1, 2):
            before = screen_cache_stats()
            with CampaignEngine(workers=workers) as engine:
                run_search(config, engine=engine)
            after = screen_cache_stats()
            counts.append({key: after[key] - before[key] for key in after})
        assert counts[0] == counts[1] == {
            "hits": 2 * config.elites,
            "misses": 3 * config.population - 2 * config.elites,
        }

    def test_generation_of_only_elites_dispatches_no_run(self, monkeypatch):
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence",
            generations=2,
            population=4,
            elites=4,
            horizon=600,
            top=0,
            seed=0,
        )
        with CampaignEngine() as engine:
            dispatched = _dispatched_recipes(engine, monkeypatch)
            report = run_search(config, engine=engine)
        assert sorted(dispatched) == [0]
        first, second = report.candidates[:4], report.candidates[4:]
        ranked = sorted(first, key=lambda c: (-c.fitness, c.signature))
        assert second == [dataclasses.replace(c, generation=1) for c in ranked]
        assert report.generations[1].candidates == 4
        assert report.generations[1].cached_runs == 0


class TestReportTallies:
    def test_finding_counts_dedup_elites_across_generations(self):
        # An elite recipe is re-evaluated (from cache) every generation it
        # survives; the headline tallies must count distinct schedules, not
        # evaluations.
        config = SearchConfig.smoke_config("k-anti-omega-convergence", generations=5, seed=0)
        report = run_search(config)
        for pool in (report.near_misses(), report.violations(in_model=False)):
            signatures = [candidate.signature for candidate in pool]
            assert len(signatures) == len(set(signatures))
        evaluations = [
            c for c in report.candidates
            if not c.confirmed_violated and c.fitness >= config.near_miss_threshold
        ]
        assert len(evaluations) >= len(report.near_misses())


class TestCommandRoundTrip:
    def test_non_default_fields_appear_in_the_command(self):
        config = SearchConfig(
            property="agreement-safety", n=5, t=1, k=1, certify_bound=6,
            near_miss_threshold=0.9, top=1, generations=2, population=8,
            horizon=900, checkpoints=5, seed=4, fitness="timeliness-bound",
        )
        command = config.command()
        for expected in (
            "--property agreement-safety", "--n 5", "--t 1", "--k 1",
            "--certify-bound 6", "--near-miss-threshold 0.9", "--top 1",
            "--generations 2", "--population 8", "--horizon 900",
            "--checkpoints 5", "--seed 4", "--fitness timeliness-bound",
        ):
            assert expected in command, f"{expected!r} missing from {command!r}"

    def test_smoke_overrides_appear_in_the_command(self):
        config = SearchConfig.smoke_config(
            "k-anti-omega-convergence", generations=2, population=5, top=1, seed=1
        )
        command = config.command()
        assert "--smoke" in command
        assert "--generations 2" in command
        assert "--population 5" in command
        assert "--top 1" in command
        # Fields matching the smoke baseline stay implicit.
        assert "--horizon" not in command
