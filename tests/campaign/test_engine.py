"""Tests for the campaign engine: dedup, caching, dispatch, record streaming."""

import json
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.analysis.experiment import EXPERIMENT_REGISTRY, detector_campaign_spec
from repro.analysis.reporting import ascii_table
from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    ResultCache,
    read_jsonl,
    register_kind,
)
from repro.errors import CampaignError, ConfigurationError

HORIZON = 6_000


def _small_spec(seed: int = 11) -> CampaignSpec:
    configs = [
        {"n": 3, "t": 2, "k": 1, "bound": 3, "crashes": frozenset()},
        {"n": 3, "t": 2, "k": 2, "bound": 3, "crashes": frozenset()},
        {"n": 4, "t": 2, "k": 2, "bound": 3, "crashes": frozenset()},
    ]
    return detector_campaign_spec(configs=configs, horizon=HORIZON, seed=seed)


def _comparable(records):
    """Record fields that must be invariant across worker counts and caching."""
    return [(r.index, r.key, r.kind, r.params, r.payload) for r in records]


class TestEngineBasics:
    def test_serial_run_produces_grid_ordered_records(self):
        result = CampaignEngine(workers=1).run(_small_spec())
        assert [r.index for r in result.records] == [0, 1, 2]
        assert all(r.kind == "detector" for r in result.records)
        assert all(r.payload["satisfied"] for r in result.records)

    def test_worker_count_invariance(self):
        serial = CampaignEngine(workers=1).run(_small_spec())
        parallel = CampaignEngine(workers=3).run(_small_spec())
        assert _comparable(serial.records) == _comparable(parallel.records)
        e2 = EXPERIMENT_REGISTRY["e2"]
        assert ascii_table(*e2.rows(serial)) == ascii_table(*e2.rows(parallel))

    def test_chunk_size_invariance(self):
        one = CampaignEngine(workers=2, chunk_size=1).run(_small_spec())
        all_in_one = CampaignEngine(workers=2, chunk_size=3).run(_small_spec())
        assert _comparable(one.records) == _comparable(all_in_one.records)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignEngine(workers=-1)
        with pytest.raises(ConfigurationError):
            CampaignEngine(chunk_size=0)
        with pytest.raises(ConfigurationError):
            CampaignEngine().run(CampaignSpec(name="x", kind="no-such-kind"))


class TestDeduplication:
    def test_repeated_configs_execute_once(self):
        spec = _small_spec()
        doubled = CampaignSpec(
            name="doubled", kind=spec.kind, runs=list(spec.runs) + list(spec.runs)
        )
        result = CampaignEngine(workers=1).run(doubled)
        assert len(result.records) == 6
        assert result.deduplicated == 3
        for first, second in zip(result.records[:3], result.records[3:]):
            assert first.key == second.key
            assert first.payload == second.payload


class TestCaching:
    def test_cache_hits_on_second_run(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = CampaignEngine(workers=1, cache=cache)
        cold = engine.run(_small_spec())
        assert cold.cache_hits == 0 and cold.cache_misses == 3
        warm = engine.run(_small_spec())
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert all(r.cached for r in warm.records)
        assert _comparable(cold.records) == _comparable(warm.records)

    def test_cache_distinguishes_parameters(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = CampaignEngine(workers=1, cache=cache)
        engine.run(_small_spec(seed=11))
        other_seed = engine.run(_small_spec(seed=13))
        assert other_seed.cache_hits == 0 and other_seed.cache_misses == 3

    def test_cached_tables_match_fresh_tables(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        fresh = CampaignEngine(workers=1).run(_small_spec())
        CampaignEngine(workers=1, cache=cache).run(_small_spec())
        cached = CampaignEngine(workers=1, cache=cache).run(_small_spec())
        e2 = EXPERIMENT_REGISTRY["e2"]
        assert ascii_table(*e2.rows(fresh)) == ascii_table(*e2.rows(cached))


class TestRecordStreaming:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        result = CampaignEngine(workers=1, jsonl_path=path).run(_small_spec())
        loaded = read_jsonl(path)
        assert _comparable(loaded) == _comparable(result.records)

    def test_generic_table_covers_params_and_payload(self):
        result = CampaignEngine(workers=1).run(_small_spec())
        headers, rows = result.table()
        assert "n" in headers and "satisfied" in headers
        assert len(rows) == 3

    def test_write_jsonl_is_atomic(self, tmp_path):
        from repro.campaign.records import write_jsonl

        path = tmp_path / "runs.jsonl"
        result = CampaignEngine(workers=1).run(_small_spec())
        write_jsonl(result.records, path)
        # The temp file was renamed over the target, never left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]
        # Overwriting goes through the same rename, replacing the content.
        write_jsonl(result.records[:1], path)
        assert len(read_jsonl(path)) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]

    @pytest.mark.parametrize("source", ["e2-seeds", "e12", "search-eval"])
    def test_json_line_bytes_match_the_asdict_form(self, source):
        # to_json_line serializes the fields as they are, without the deep
        # copy of dataclasses.asdict; the bytes must not change.
        if source == "search-eval":
            from repro.search.engine import SearchConfig, generation_recipes, generation_spec

            config = SearchConfig.smoke_config("k-anti-omega-convergence", horizon=300)
            spec = generation_spec(config, 0, generation_recipes(config, 0, []), workers=2)
        else:
            spec = EXPERIMENT_REGISTRY[source].build(horizon=600)
        records = CampaignEngine(workers=1).run(spec).records
        assert {record.kind for record in records} == {spec.kind}
        for record in records:
            for form in (record, record.canonical()):
                expected = json.dumps(asdict(form), sort_keys=True, separators=(",", ":"))
                assert form.to_json_line() == expected

    def test_canonical_jsonl_normalizes_volatile_fields(self, tmp_path):
        from repro.campaign.records import write_jsonl

        cache = ResultCache(tmp_path / "cache")
        first = CampaignEngine(workers=1, cache=cache).run(_small_spec())
        second = CampaignEngine(workers=1, cache=cache).run(_small_spec())
        assert any(r.cached for r in second.records)  # volatile field differs
        fresh_path, cached_path = tmp_path / "fresh.jsonl", tmp_path / "cached.jsonl"
        write_jsonl(first.records, fresh_path, canonical=True)
        write_jsonl(second.records, cached_path, canonical=True)
        assert fresh_path.read_bytes() == cached_path.read_bytes()
        assert all(not r.cached and r.elapsed == 0.0 for r in read_jsonl(fresh_path))


class TestBatchedSchedules:
    def test_compiled_replicas_match_live_stream_payloads(self):
        """Compiled-buffer replicas must equal the detector on a live stream."""
        import json

        from repro.analysis.metrics import run_detector_experiment
        from repro.campaign.runner import _detector_payload
        from repro.scenarios.spec import build_generator

        records = CampaignEngine(workers=1).run(_small_spec()).records
        for record in records:
            params = record.params
            report = run_detector_experiment(
                build_generator(params),
                t=params["t"],
                k=params["k"],
                horizon=params["horizon"],
                fast=True,
            )
            streamed = json.loads(json.dumps(_detector_payload(report)))
            assert record.payload == streamed, params

    def test_same_scenario_replicas_are_grouped_adjacently(self):
        # Two schedule scenarios, interleaved in grid order; grouping must
        # reorder dispatch (first-seen order) without touching record order.
        spec = CampaignSpec(
            name="interleaved",
            kind="detector",
            base={"n": 3, "t": 2, "bound": 3, "horizon": 2_000, "seed": 11,
                  "p_set": [1], "q_set": [1, 2, 3], "schedule": "set-timely"},
            runs=[{"k": 1}, {"k": 1, "seed": 13}, {"k": 2}, {"k": 2, "seed": 13}],
        )
        pending = [(run.key(), run) for run in spec.expand()]
        ordered = CampaignEngine._batched_by_schedule(pending)
        seeds = [run.param_dict()["seed"] for _, run in ordered]
        assert seeds == [11, 11, 13, 13]
        result = CampaignEngine(workers=1).run(spec)
        assert [r.params["k"] for r in result.records] == [1, 1, 2, 2]


class TestPersistentPool:
    def test_pool_survives_across_run_invocations(self):
        with CampaignEngine(workers=2) as engine:
            first = engine.run(_small_spec())
            pool = engine._pool
            assert pool is not None
            second = engine.run(_small_spec(seed=13))
            assert engine._pool is pool
        assert engine._pool is None  # context exit closed it
        assert len(first.records) == len(second.records) == 3

    def test_close_is_idempotent_and_inline_engines_have_no_pool(self):
        engine = CampaignEngine(workers=1)
        engine.run(_small_spec())
        assert engine._pool is None
        engine.close()
        engine.close()


class TestColdStart:
    """Pool and package-metadata machinery load only when a run uses them.

    The pooled path that imports them on first use is pinned against the
    serial one by :meth:`TestEngineBasics.test_worker_count_invariance` and
    :meth:`TestEngineBasics.test_chunk_size_invariance`.
    """

    DEFERRED = ("importlib.metadata", "multiprocessing", "concurrent.futures")

    def test_imports_and_inline_runs_load_no_deferred_machinery(self):
        src = Path(__file__).resolve().parents[2] / "src"
        loaded = f"print(sorted(set({self.DEFERRED!r}) & set(sys.modules)))\n"
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import repro, repro.cli, repro.campaign, repro.search.engine\n"
            "import repro.distsim.reduction, repro.analysis.experiment\n"
            + loaded
            + "repro.cli.build_parser().parse_args(['list'])\n"
            "spec = repro.campaign.CampaignSpec(name='cold', kind='figure1', runs=[{'blocks': 3}])\n"
            "repro.campaign.CampaignEngine(workers=1).run(spec)\n"
            + loaded
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        after_imports, after_inline_run = done.stdout.splitlines()
        assert after_imports == "[]"
        assert after_inline_run == "[]"


class TestHonestTiming:
    def test_per_run_elapsed_is_measured_worker_side(self):
        """Regression: chunk timing once included all previous chunks' wall time.

        Each run sleeps a fixed delay.  With parent-side cumulative timing the
        later chunks' per-run elapsed grew with every chunk already dispatched
        (~N×delay for the last one); worker-side timing pins each run's
        elapsed near the delay itself, independent of chunk position.
        """
        delay = 0.1

        def sleepy(params):
            time.sleep(params["delay"])
            return {"slept": params["delay"], "run": params["run"]}

        register_kind("sleep-test", sleepy)
        try:
            spec = CampaignSpec(
                name="sleepy",
                kind="sleep-test",
                base={"delay": delay},
                axes={"run": [1, 2, 3, 4, 5, 6]},
            )
            with CampaignEngine(workers=2, chunk_size=1) as engine:
                result = engine.run(spec)
            elapsed = [record.elapsed for record in result.records]
            assert all(e >= delay * 0.9 for e in elapsed), elapsed
            # The old cumulative bug put the last chunks at ~3x the delay
            # (six chunks over two workers); worker-side timing stays tight.
            assert max(elapsed) < delay * 2, elapsed
        finally:
            from repro.campaign.runner import _KINDS

            _KINDS.pop("sleep-test", None)

    def test_inline_elapsed_is_per_run(self):
        delay = 0.05

        def sleepy(params):
            time.sleep(delay)
            return {"ok": True, "run": params["run"]}

        register_kind("sleep-inline-test", sleepy)
        try:
            spec = CampaignSpec(
                name="sleepy-inline", kind="sleep-inline-test", axes={"run": [1, 2, 3]}
            )
            result = CampaignEngine(workers=1).run(spec)
            for record in result.records:
                assert delay * 0.9 <= record.elapsed < delay * 2
        finally:
            from repro.campaign.runner import _KINDS

            _KINDS.pop("sleep-inline-test", None)


class TestCustomKinds:
    def test_register_and_execute_custom_kind(self):
        register_kind("echo-test", lambda params: {"echo": params["value"] * 2})
        try:
            spec = CampaignSpec(name="echo", kind="echo-test", axes={"value": [1, 2, 3]})
            result = CampaignEngine(workers=1).run(spec)
            assert [r.payload["echo"] for r in result.records] == [2, 4, 6]
        finally:
            from repro.campaign.runner import _KINDS

            _KINDS.pop("echo-test", None)


def _suicide_once(params):
    """SIGKILL the executing pool worker the first time, succeed afterwards.

    Only ever registered for pool runs (``workers >= 2``): executed inline it
    would kill the test process itself.
    """
    import os
    import signal
    import time as time_module
    from pathlib import Path

    # Determinism helper: only die once the named files exist, so which
    # chunks were harvested before the crash is not a race.
    deadline = time_module.time() + 30.0
    for marker_path in params.get("await_markers", ()):
        while not Path(marker_path).exists() and time_module.time() < deadline:
            time_module.sleep(0.005)
    if params.get("always_lethal"):
        os.kill(os.getpid(), signal.SIGKILL)
    if params.get("lethal"):
        marker = Path(params["marker"])
        if not marker.exists():
            marker.write_text("dead", encoding="utf-8")
            os.kill(os.getpid(), signal.SIGKILL)
    return {"x": params["x"] * 10}


@pytest.fixture
def suicide_kind():
    register_kind("suicide-once", _suicide_once)
    yield
    from repro.campaign.runner import _KINDS

    _KINDS.pop("suicide-once", None)


class TestPoolSalvage:
    """A dead pool worker loses only its in-flight chunk, nothing harvested."""

    def _spec(self, tmp_path, lethal_index=2):
        runs = [
            {
                "x": index,
                "lethal": index == lethal_index,
                "marker": str(tmp_path / "marker"),
            }
            for index in range(4)
        ]
        return CampaignSpec(name="salvage", kind="suicide-once", runs=runs)

    def test_sigkilled_worker_chunk_is_redispatched(self, suicide_kind, tmp_path):
        engine = CampaignEngine(workers=2, chunk_size=1)
        try:
            result = engine.run(self._spec(tmp_path))
        finally:
            engine.close()
        assert (tmp_path / "marker").exists(), "the kill fired"
        assert [r.payload["x"] for r in result.records] == [0, 10, 20, 30]

    def test_salvaged_records_match_inline_run(self, suicide_kind, tmp_path):
        pool_engine = CampaignEngine(workers=2, chunk_size=1)
        try:
            salvaged = pool_engine.run(self._spec(tmp_path))
        finally:
            pool_engine.close()
        # Inline reference: the marker now exists, so nothing dies.
        inline = CampaignEngine().run(self._spec(tmp_path))
        assert [r.canonical() for r in salvaged.records] == [
            r.canonical() for r in inline.records
        ]

    def test_completed_chunks_are_persisted_before_the_crash(
        self, suicide_kind, tmp_path
    ):
        # Runs 0 and 1 complete first, so their payloads must reach the
        # cache even though run 2 then kills its worker and the zero
        # re-dispatch budget aborts the campaign.  The killer waits for the
        # parent's cache entries of runs 0 and 1, not for markers the workers
        # write: a worker-side marker lands before the result is sent, and a
        # kill in that window breaks the pool before the parent has received
        # the result.  If the parent only persisted after the campaign, the
        # killer would time out, die anyway, and the assertions below fail.
        cache = ResultCache(tmp_path / "cache")
        engine = CampaignEngine(
            workers=2, chunk_size=1, cache=cache, dispatch_retries=0
        )
        harvested = [{"x": 0}, {"x": 1}]
        harvested_keys = [
            run.key()
            for run in CampaignSpec(
                name="salvage", kind="suicide-once", runs=harvested
            ).expand()
        ]
        spec = CampaignSpec(
            name="salvage",
            kind="suicide-once",
            runs=harvested
            + [
                {
                    "x": 2,
                    "lethal": True,
                    "marker": str(tmp_path / "marker"),
                    "await_markers": [
                        str(cache._path_for(key)) for key in harvested_keys
                    ],
                },
                {"x": 3},
            ],
        )
        expanded = spec.expand()
        assert [run.key() for run in expanded[:2]] == harvested_keys
        with pytest.raises(CampaignError):
            engine.run(spec)
        assert cache.contains(expanded[0].key())
        assert cache.contains(expanded[1].key())
        # The engine closed its broken pool and stays reusable: the marker
        # exists now, so the same spec completes, reusing salvaged payloads.
        retry = engine.run(spec)
        assert retry.cache_hits >= 2
        assert [r.payload["x"] for r in retry.records] == [0, 10, 20, 30]
        engine.close()
        engine.close()  # idempotent

    def test_engine_reusable_after_exhausted_redispatch_budget(
        self, suicide_kind, tmp_path
    ):
        engine = CampaignEngine(workers=2, chunk_size=1, dispatch_retries=0)
        # Lethal on every attempt: no marker, the re-dispatch dies too.
        spec = CampaignSpec(
            name="doomed", kind="suicide-once", runs=[{"x": 0, "always_lethal": True}]
        )
        with pytest.raises(CampaignError, match="re-dispatch"):
            engine.run(spec)
        # A fresh pool is built transparently for the next run.
        good = CampaignSpec(
            name="fine", kind="suicide-once", runs=[{"x": 7, "lethal": False}]
        )
        result = engine.run(good)
        assert result.records[0].payload["x"] == 70
        engine.close()
