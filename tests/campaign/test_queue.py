"""Tests for the durable job queue: leasing, backoff, poison, drain, resume."""

import json
import os
import signal

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    DurableCampaignEngine,
    JobQueue,
    QueueWorker,
    ResultCache,
    content_key,
    drain_queue,
    read_jsonl,
    register_kind,
)
from repro.campaign.queue import WorkerReport
from repro.campaign.records import write_jsonl
from repro.errors import CampaignError, ConfigurationError, PoisonedRunsError

HORIZON = 3_000


def _spec(name: str = "queued", seeds=(11, 13)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        kind="detector",
        base={
            "schedule": "set-timely",
            "n": 3,
            "t": 2,
            "bound": 3,
            "crashes": frozenset(),
            "p_set": frozenset({1}),
            "q_set": frozenset({1, 2, 3}),
            "horizon": HORIZON,
        },
        runs=[{"k": 1}, {"k": 2}],
        axes={"seed": list(seeds)},
    )


def _solo_spec() -> CampaignSpec:
    base = dict(_spec().base, seed=11)
    return CampaignSpec(name="solo", kind="detector", base=base, runs=[{"k": 1}])


class FakeClock:
    """A manually advanced time source for deterministic lease/backoff tests."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestEnqueue:
    def test_enqueue_is_idempotent(self, tmp_path):
        with JobQueue(tmp_path / "q.db") as queue:
            first = queue.enqueue(_spec())
            again = queue.enqueue(_spec())
        assert first.positions == 4 and first.new_jobs == 4
        assert again.new_jobs == 0 and again.existing_jobs == 4

    def test_campaigns_sharing_configs_share_jobs(self, tmp_path):
        with JobQueue(tmp_path / "q.db") as queue:
            queue.enqueue(_spec(name="one"))
            report = queue.enqueue(_spec(name="two"))
            assert report.new_jobs == 0 and report.existing_jobs == 4
            assert queue.status().counts.get("pending") == 4
            assert queue.campaigns() == ["one", "two"]

    def test_within_campaign_duplicates_collapse(self, tmp_path):
        spec = _spec(seeds=(11, 11))  # two positions, one distinct configuration each k
        with JobQueue(tmp_path / "q.db") as queue:
            report = queue.enqueue(spec)
        assert report.positions == 4
        assert report.new_jobs == 2

    def test_policy_persists_in_meta(self, tmp_path):
        path = tmp_path / "q.db"
        with JobQueue(path, lease_seconds=1.5, max_attempts=5):
            pass
        with JobQueue(path) as reopened:
            assert reopened.lease_seconds == 1.5
            assert reopened.max_attempts == 5

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path / "a.db", lease_seconds=0)
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path / "b.db", max_attempts=0)

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"lease_seconds": 0}, "lease_seconds must be > 0, got 0$"),
            ({"lease_seconds": -1.5}, "lease_seconds must be > 0, got -1.5$"),
            ({"max_attempts": 0}, "max_attempts must be >= 1, got 0$"),
        ],
        ids=["zero-lease", "negative-lease", "zero-attempts"],
    )
    def test_bad_policy_creates_no_database(self, tmp_path, override, message):
        with pytest.raises(ConfigurationError, match=message):
            JobQueue(tmp_path / "sub" / "q.db", **override)
        assert not (tmp_path / "sub").exists()

    @pytest.mark.parametrize(
        "override", [{"lease_seconds": 0}, {"max_attempts": 0}], ids=["lease", "attempts"]
    )
    def test_bad_override_leaves_the_database_as_it_was(self, tmp_path, override):
        path = tmp_path / "q.db"
        with JobQueue(path, lease_seconds=1.5, max_attempts=5) as queue:
            queue.enqueue(_spec())
        with pytest.raises(ConfigurationError):
            JobQueue(path, **override)
        with JobQueue(path) as reopened:
            assert (reopened.lease_seconds, reopened.max_attempts) == (1.5, 5)
            assert reopened.status().counts.get("pending") == 4


class TestLeaseCycle:
    def _queue(self, tmp_path, clock, **policy) -> JobQueue:
        queue = JobQueue(tmp_path / "q.db", clock=clock, **policy)
        queue.enqueue(_spec())
        return queue

    def test_lease_charges_attempt_and_is_exclusive(self, tmp_path):
        clock = FakeClock()
        with self._queue(tmp_path, clock) as queue:
            jobs = queue.lease("w1", limit=4)
            assert len(jobs) == 4
            assert all(job.attempt == 1 for job in jobs)
            assert queue.lease("w2", limit=4) == []

    def test_complete_is_lease_checked(self, tmp_path):
        clock = FakeClock()
        with self._queue(tmp_path, clock) as queue:
            (job,) = queue.lease("w1")
            assert not queue.complete(job.key, {"x": 1}, 0.1, "impostor")
            assert queue.complete(job.key, {"x": 1}, 0.1, "w1")
            assert job.key in queue.done_keys()

    def test_expired_lease_is_reclaimed_with_fresh_attempt(self, tmp_path):
        clock = FakeClock()
        with self._queue(tmp_path, clock, lease_seconds=10.0) as queue:
            jobs = queue.lease("dead", limit=4)
            assert queue.lease("other", limit=4) == []  # leases still held
            clock.advance(11.0)
            reclaimed = queue.lease("alive", limit=4)
            assert {job.key for job in reclaimed} == {job.key for job in jobs}
            assert all(job.attempt == 2 for job in reclaimed)
            # The dead worker's late completion is stale and discarded.
            assert not queue.complete(jobs[0].key, {"x": 1}, 0.1, "dead")

    def test_heartbeat_extends_leases(self, tmp_path):
        clock = FakeClock()
        with self._queue(tmp_path, clock, lease_seconds=10.0) as queue:
            queue.lease("w1", limit=4)
            clock.advance(8.0)
            assert queue.heartbeat("w1") == 4
            clock.advance(8.0)  # past the original expiry, within the renewed one
            assert queue.lease("w2", limit=4) == []

    def test_fail_backs_off_exponentially_with_cap(self, tmp_path):
        clock = FakeClock()
        with JobQueue(
            tmp_path / "q.db",
            clock=clock,
            backoff_base=1.0,
            backoff_cap=3.0,
            max_attempts=5,
        ) as queue:
            queue.enqueue(_solo_spec())
            (job,) = queue.lease("w1")
            assert queue.fail(job.key, "boom", "w1") == "pending"
            assert queue.lease("w1") == []  # gated by not_before
            clock.advance(1.0)  # base * 2^0
            (job,) = queue.lease("w1")
            assert job.attempt == 2
            queue.fail(job.key, "boom", "w1")
            clock.advance(1.0)
            assert queue.lease("w1") == []  # second backoff is 2s now
            clock.advance(1.0)
            (job,) = queue.lease("w1")
            assert job.attempt == 3
            queue.fail(job.key, "boom", "w1")
            clock.advance(3.0)  # capped at 3.0, not 4.0
            (job,) = queue.lease("w1")
            assert job.attempt == 4

    def test_exhausted_attempts_poison_instead_of_lease(self, tmp_path):
        clock = FakeClock()
        with self._queue(
            tmp_path, clock, max_attempts=2, backoff_base=0.5, backoff_cap=0.5
        ) as queue:
            key = None
            for _ in range(2):
                (job,) = queue.lease("w1", limit=1)
                key = job.key
                queue.fail(job.key, "boom", "w1")
                clock.advance(1.0)
            # Third lease must quarantine, not execute.
            remaining = queue.lease("w1", limit=4)
            assert all(job.key != key for job in remaining)
            status = queue.status()
            assert status.counts.get("poisoned") == 1
            assert status.poison[0][0] == key
            assert "boom" in status.poison[0][3]
            assert max(queue.attempts_by_key().values()) <= 2

    def test_dead_worker_at_max_attempts_poisons_on_reclaim(self, tmp_path):
        clock = FakeClock()
        with self._queue(tmp_path, clock, max_attempts=1, lease_seconds=5.0) as queue:
            (job,) = queue.lease("dead")
            clock.advance(6.0)
            queue.lease("alive", limit=4)
            status = queue.status()
            assert status.counts.get("poisoned") == 1
            assert "worker died" in status.poison[0][3]

    def test_record_done_preresolves_pending_only(self, tmp_path):
        clock = FakeClock()
        with self._queue(tmp_path, clock) as queue:
            (job,) = queue.lease("w1")
            assert not queue.record_done(job.key, {"x": 1})  # leased, not pending
            pending = [k for k in queue.attempts_by_key() if k != job.key]
            assert queue.record_done(pending[0], {"x": 1})


class TestRecordsFor:
    def test_grid_order_and_cached_marking(self, tmp_path):
        spec = _spec()
        with JobQueue(tmp_path / "q.db") as queue:
            queue.enqueue(spec)
            expanded = spec.expand()
            cached_key = expanded[0].key()
            queue.record_done(cached_key, {"x": 0})
            for run in expanded[1:]:
                if queue.record_done(run.key(), {"x": 1}):
                    pass
            records = queue.records_for(spec.name, cached_keys=frozenset({cached_key}))
        assert [record.index for record in records] == [0, 1, 2, 3]
        assert records[0].cached and not records[1].cached
        assert [record.key for record in records] == [run.key() for run in expanded]

    def test_unfinished_positions_are_an_error(self, tmp_path):
        with JobQueue(tmp_path / "q.db") as queue:
            queue.enqueue(_spec())
            with pytest.raises(CampaignError, match="unfinished"):
                queue.records_for("queued")

    def test_unknown_campaign_is_an_error(self, tmp_path):
        with JobQueue(tmp_path / "q.db") as queue:
            with pytest.raises(CampaignError, match="no positions"):
                queue.records_for("nope")

    def test_poisoned_runs_are_reported_not_dropped(self, tmp_path):
        clock = FakeClock()
        with JobQueue(tmp_path / "q.db", clock=clock, max_attempts=1) as queue:
            queue.enqueue(_spec())
            (job,) = queue.lease("w1")
            queue.fail(job.key, "kaboom", "w1")
            for other in queue.lease("w1", limit=4):
                queue.complete(other.key, {"x": 1}, 0.1, "w1")
            with pytest.raises(PoisonedRunsError, match="kaboom"):
                queue.records_for("queued")


class TestQueueWorker:
    def test_worker_drains_and_persists_to_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with JobQueue(tmp_path / "q.db") as queue:
            queue.enqueue(_spec())
            report = QueueWorker(queue, "w1", cache=cache, batch=2).run()
            assert report.completed == 4 and report.failed == 0
            assert queue.unfinished() == 0
            for key in queue.done_keys():
                assert cache.contains(key)

    def test_max_runs_retires_worker_early(self, tmp_path):
        with JobQueue(tmp_path / "q.db") as queue:
            queue.enqueue(_spec())
            report = QueueWorker(queue, "w1", max_runs=2).run()
            assert report.leased == 2
            assert queue.unfinished() == 2

    @pytest.mark.parametrize("batch, renewed", [(1, []), (3, [2, 1])])
    def test_heartbeats_only_while_later_jobs_are_held(self, tmp_path, batch, renewed):
        # Four jobs.  At batch=1 no other lease is held after any job; at
        # batch=3 the first lease renews its two, then one, remaining jobs,
        # and the second lease holds a single job.
        with JobQueue(tmp_path / "q.db") as queue:
            queue.enqueue(_spec())
            heartbeat = queue.heartbeat
            counts = []

            def counting(worker_id):
                counts.append(heartbeat(worker_id))
                return counts[-1]

            queue.heartbeat = counting
            report = QueueWorker(queue, "w1", batch=batch).run()
            assert report.completed == 4
            assert counts == renewed

    def test_worker_failures_travel_the_backoff_path(self, tmp_path):
        # A kind that always raises exercises fail -> backoff -> poison
        # without any fault injector.
        register_kind("always-raises", _always_raises)
        spec = CampaignSpec(
            name="doomed", kind="always-raises", runs=[{"x": 1}]
        )
        with JobQueue(
            tmp_path / "q.db", max_attempts=2, backoff_base=0.01, backoff_cap=0.01
        ) as queue:
            queue.enqueue(spec)
            report = QueueWorker(queue, "w1", poll_interval=0.01).run()
            assert report.failed == 2
            status = queue.status()
            assert status.counts.get("poisoned") == 1
            assert "ValueError" in status.poison[0][3]
            assert max(queue.attempts_by_key().values()) == 2


def _always_raises(params):
    raise ValueError("this kind always fails")


class TestDrain:
    def test_negative_respawn_budget_rejected_before_anything_runs(self, tmp_path):
        path = tmp_path / "q.db"
        with pytest.raises(ConfigurationError, match="max_respawns must be >= 0, got -1$"):
            drain_queue(path, max_respawns=-1, cache_dir=tmp_path / "cache")
        with pytest.raises(ConfigurationError, match="max_respawns must be >= 0, got -1$"):
            DurableCampaignEngine(path, max_respawns=-1)
        with pytest.raises(ConfigurationError, match="lease_seconds must be > 0, got 0$"):
            DurableCampaignEngine(path, lease_seconds=0)
        assert not path.exists() and not (tmp_path / "cache").exists()

    def test_multiprocess_drain_completes_queue(self, tmp_path):
        path = tmp_path / "q.db"
        with JobQueue(path) as queue:
            queue.enqueue(_spec())
        report = drain_queue(path, workers=2, cache_dir=tmp_path / "cache")
        assert report.deaths == 0 and report.respawns == 0
        with JobQueue(path) as queue:
            assert queue.unfinished() == 0

    def test_interrupted_drain_is_resumable(self, tmp_path):
        path = tmp_path / "q.db"
        with JobQueue(path) as queue:
            queue.enqueue(_spec())
        drain_queue(path, workers=1, max_runs_per_worker=2)
        with JobQueue(path) as queue:
            assert queue.unfinished() == 2
        drain_queue(path, workers=1)
        with JobQueue(path) as queue:
            assert queue.unfinished() == 0


class TestDurableEngine:
    def test_records_match_plain_engine_canonically(self, tmp_path):
        spec = _spec()
        plain = CampaignEngine().run(spec)
        engine = DurableCampaignEngine(tmp_path / "q.db", workers=2)
        durable = engine.run(spec)
        assert [r.canonical() for r in durable.records] == [
            r.canonical() for r in plain.records
        ]

    def test_second_run_resumes_without_reexecuting(self, tmp_path):
        spec = _spec()
        engine = DurableCampaignEngine(tmp_path / "q.db")
        engine.run(spec)
        attempts_before = None
        with engine.open_queue() as queue:
            attempts_before = queue.attempts_by_key()
        resumed = DurableCampaignEngine(tmp_path / "q.db")
        result = resumed.run(spec)
        assert len(result.records) == 4
        assert resumed.enqueue_report.already_done == 4
        with resumed.open_queue() as queue:
            assert queue.attempts_by_key() == attempts_before

    def test_jsonl_is_canonical_and_stable_across_resume(self, tmp_path):
        spec = _spec()
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        DurableCampaignEngine(tmp_path / "q.db", workers=2, jsonl_path=first).run(spec)
        DurableCampaignEngine(tmp_path / "q.db", workers=2, jsonl_path=second).run(spec)
        assert first.read_bytes() == second.read_bytes()

    def test_cache_preresolution_skips_workers(self, tmp_path):
        spec = _spec()
        cache = ResultCache(tmp_path / "cache")
        CampaignEngine(cache=cache).run(spec)
        engine = DurableCampaignEngine(
            tmp_path / "q.db", cache=ResultCache(tmp_path / "cache")
        )
        result = engine.run(spec)
        assert result.cache_hits == 4 and result.cache_misses == 0
        assert all(record.cached for record in result.records)
