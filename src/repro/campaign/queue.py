"""Durable, crash-safe job queue for campaign runs (SQLite-backed).

Campaigns were a foreground process: one killed worker discarded every chunk
in flight, and a week-long sweep died with its terminal.  This module turns a
campaign into a *queue you drain*: jobs live in a SQLite database, workers
are detachable processes that lease jobs, heartbeat, and crash without taking
anyone else's work with them, and every completed payload is durable the
moment it exists.

Identity and dedup carry over unchanged from the in-process engine: a job
*is* a content key (:func:`repro.campaign.spec.content_key`), so re-enqueueing
a campaign is idempotent, two campaigns sharing configurations share jobs,
and the result cache story is untouched.

The job state machine::

                  enqueue                    lease (attempt += 1)
    (absent) ──────────────▶ pending ─────────────────────────▶ leased
                                ▲                                 │ │
               backoff expires  │                                 │ │ complete
      (not_before = now + min(  │         fail / lease expiry     │ ▼
       cap, base·2^(attempt-1)))└─────────────────────────────────┘ done
                                          │
                                          │ attempts == max_attempts
                                          ▼
                                      poisoned  (quarantine table, reported)

* **Leasing** claims a job atomically (``BEGIN IMMEDIATE``), charges an
  attempt, and stamps ``lease_expires``.  A worker that dies holding a lease
  releases nothing — the lease simply expires and the next
  :meth:`JobQueue.lease` call reclaims the job.  Attempts are charged at
  lease time, so *no run can ever execute more than* ``max_attempts`` *times*,
  no matter how workers die.
* **Heartbeating** extends the lease of everything a live worker holds, so
  long queues tolerate slow runs without false reclaims.
* **Retry with capped exponential backoff**: a failed run returns to
  ``pending`` but is not eligible again until
  ``now + min(backoff_cap, backoff_base · 2^(attempt-1))``.
* **Poison quarantine**: a job that has consumed ``max_attempts`` leases is
  moved to the ``poison`` table — reported, never silently dropped, and never
  able to wedge the queue.

:class:`DurableCampaignEngine` packages the whole flow behind the ordinary
engine interface (``engine.run(spec)``), which is what ``repro campaign
--resume <db>`` constructs: enqueue (idempotent), drain with N detachable
worker processes (respawned when chaos or the OS kills them), then reassemble
grid-order records from the database.  Records written this way are
*canonical* (:meth:`RunRecord.canonical`), so a crash-ridden, twice-resumed
drain is byte-identical to an unfaulted single-shot run — the differential
acceptance test in ``tests/campaign/test_faults.py`` pins exactly that.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from ..errors import CampaignError, ConfigurationError, PoisonedRunsError
from .cache import ResultCache
from .engine import CampaignEngine, CampaignResult, fork_context
from .faults import FaultInjector, FaultPlan
from .records import RunRecord, write_jsonl
from .runner import execute_spec
from .spec import CampaignSpec, RunSpec, canonical_json

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

__all__ = [
    "JobQueue",
    "LeasedJob",
    "EnqueueReport",
    "QueueStatus",
    "QueueWorker",
    "WorkerReport",
    "DrainReport",
    "DurableCampaignEngine",
    "drain_queue",
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_MAX_ATTEMPTS",
]

DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_BASE = 0.25
DEFAULT_BACKOFF_CAP = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    key           TEXT PRIMARY KEY,
    kind          TEXT NOT NULL,
    params        TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    not_before    REAL NOT NULL DEFAULT 0,
    lease_owner   TEXT,
    lease_expires REAL,
    payload       TEXT,
    elapsed       REAL,
    error         TEXT,
    enqueued_at   REAL NOT NULL,
    completed_at  REAL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state);
CREATE TABLE IF NOT EXISTS poison (
    key            TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    params         TEXT NOT NULL,
    attempts       INTEGER NOT NULL,
    error          TEXT,
    quarantined_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS positions (
    campaign TEXT NOT NULL,
    idx      INTEGER NOT NULL,
    key      TEXT NOT NULL,
    kind     TEXT NOT NULL,
    params   TEXT NOT NULL,
    PRIMARY KEY (campaign, idx)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Queue policy knobs persisted in ``meta`` so every worker process that
#: opens the database — now or after a restart — agrees on the same lease
#: duration, retry budget and backoff schedule.
_POLICY_KEYS = ("lease_seconds", "max_attempts", "backoff_base", "backoff_cap")


def _check_policy(lease_seconds: Optional[float], max_attempts: Optional[int]) -> None:
    """Reject a lease of no time or a retry budget below one run (``None``: not given)."""
    if lease_seconds is not None and lease_seconds <= 0:
        raise ConfigurationError(f"lease_seconds must be > 0, got {lease_seconds}")
    if max_attempts is not None and int(max_attempts) < 1:
        raise ConfigurationError(f"max_attempts must be >= 1, got {max_attempts}")


def _check_max_respawns(max_respawns: int) -> None:
    if max_respawns < 0:
        raise ConfigurationError(f"max_respawns must be >= 0, got {max_respawns}")


@dataclass(frozen=True)
class LeasedJob:
    """One claimed job: identity, parameters, and which attempt this is."""

    key: str
    kind: str
    params: Dict[str, Any]
    attempt: int

    def run_spec(self) -> RunSpec:
        """The job as an executable :class:`RunSpec`."""
        return RunSpec.create(self.kind, self.params)


@dataclass(frozen=True)
class EnqueueReport:
    """What one enqueue call changed."""

    campaign: str
    positions: int
    new_jobs: int
    existing_jobs: int
    already_done: int

    def summary(self) -> str:
        """One-line human-readable account of the enqueue."""
        return (
            f"enqueued campaign {self.campaign!r}: {self.positions} position(s), "
            f"{self.new_jobs} new job(s), {self.existing_jobs} already queued, "
            f"{self.already_done} already done"
        )


@dataclass(frozen=True)
class QueueStatus:
    """A consistent snapshot of the queue's state."""

    counts: Dict[str, int]
    eligible: int
    backing_off: int
    expired_leases: int
    max_attempts_seen: int
    poison: Tuple[Tuple[str, str, int, str], ...]  # (key, kind, attempts, error)
    campaigns: Tuple[str, ...]

    def unfinished(self) -> int:
        """Jobs not yet terminally resolved (pending plus leased)."""
        return self.counts.get("pending", 0) + self.counts.get("leased", 0)

    def lines(self) -> List[str]:
        """Human-readable status report (what ``repro queue status`` prints)."""
        total = sum(self.counts.values())
        out = [f"queue: {total} job(s) — " + ", ".join(
            f"{state}={self.counts.get(state, 0)}"
            for state in ("pending", "leased", "done", "poisoned")
        )]
        out.append(
            f"  eligible now: {self.eligible}, backing off: {self.backing_off}, "
            f"expired leases: {self.expired_leases}, max attempts seen: "
            f"{self.max_attempts_seen}"
        )
        if self.campaigns:
            out.append("  campaigns: " + ", ".join(self.campaigns))
        for key, kind, attempts, error in self.poison:
            out.append(
                f"  POISON {key[:12]}… kind={kind} attempts={attempts} error={error}"
            )
        return out


class JobQueue:
    """A durable, multi-process-safe job queue in one SQLite file.

    Parameters
    ----------
    path:
        The database file.  Created (with schema) if absent.
    lease_seconds, max_attempts, backoff_base, backoff_cap:
        Queue policy.  Persisted into the database on first creation and
        read back on reopen, so every worker agrees; passing a non-``None``
        value on an existing database overrides and re-persists it.  A
        rejected value raises :class:`ConfigurationError` before the file is
        opened, so it neither creates nor changes a database.
    clock:
        Injectable time source (seconds, ``time.time``-like) for
        deterministic lease/backoff tests.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        lease_seconds: Optional[float] = None,
        max_attempts: Optional[int] = None,
        backoff_base: Optional[float] = None,
        backoff_cap: Optional[float] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        _check_policy(lease_seconds, max_attempts)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._conn = sqlite3.connect(str(self.path), timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        overrides = {
            "lease_seconds": lease_seconds,
            "max_attempts": max_attempts,
            "backoff_base": backoff_base,
            "backoff_cap": backoff_cap,
        }
        defaults = {
            "lease_seconds": DEFAULT_LEASE_SECONDS,
            "max_attempts": DEFAULT_MAX_ATTEMPTS,
            "backoff_base": DEFAULT_BACKOFF_BASE,
            "backoff_cap": DEFAULT_BACKOFF_CAP,
        }
        policy = self._load_policy()
        for name in _POLICY_KEYS:
            value = overrides[name]
            if value is None:
                value = policy.get(name, defaults[name])
            else:
                self._set_meta(name, repr(float(value)))
            setattr(self, name, float(value))
        try:
            # A database written before overrides were checked may hold bad values.
            _check_policy(self.lease_seconds, self.max_attempts)
        except ConfigurationError:
            self.close()
            raise
        self.max_attempts = int(self.max_attempts)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the database connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        """An immediate (write-locking) transaction, rolled back on error."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.rollback()
            raise
        else:
            self._conn.commit()

    def _load_policy(self) -> Dict[str, float]:
        rows = self._conn.execute(
            "SELECT key, value FROM meta WHERE key IN (?, ?, ?, ?)", _POLICY_KEYS
        ).fetchall()
        return {row["key"]: float(row["value"]) for row in rows}

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )
        self._conn.commit()

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def enqueue(self, spec: CampaignSpec) -> EnqueueReport:
        """Expand a campaign into the queue, idempotently.

        Grid positions (``index -> content key``) are recorded under the
        campaign's name so records can be reassembled in grid order later;
        jobs are inserted keyed by content key, so positions of this or any
        other campaign that share a configuration share the job.  Re-running
        enqueue is safe: existing jobs (in any state) are left untouched.
        """
        run_specs = spec.expand()
        now = self._clock()
        new_jobs = existing = done = 0
        with self._tx() as conn:
            conn.execute("DELETE FROM positions WHERE campaign = ?", (spec.name,))
            seen: Dict[str, RunSpec] = {}
            for index, run_spec in enumerate(run_specs):
                key = run_spec.key()
                params_json = canonical_json(run_spec.param_dict())
                conn.execute(
                    "INSERT INTO positions (campaign, idx, key, kind, params) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (spec.name, index, key, run_spec.kind, params_json),
                )
                if key in seen:
                    continue
                seen[key] = run_spec
                row = conn.execute(
                    "SELECT state FROM jobs WHERE key = ?", (key,)
                ).fetchone()
                if row is None:
                    conn.execute(
                        "INSERT INTO jobs (key, kind, params, enqueued_at) "
                        "VALUES (?, ?, ?, ?)",
                        (key, run_spec.kind, params_json, now),
                    )
                    new_jobs += 1
                elif row["state"] == "done":
                    done += 1
                else:
                    existing += 1
        return EnqueueReport(
            campaign=spec.name,
            positions=len(run_specs),
            new_jobs=new_jobs,
            existing_jobs=existing,
            already_done=done,
        )

    def record_done(self, key: str, payload: Mapping[str, Any]) -> bool:
        """Mark a pending job done without executing it (cache pre-resolution)."""
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'done', payload = ?, elapsed = 0, "
                "completed_at = ? WHERE key = ? AND state = 'pending'",
                (json.dumps(dict(payload), sort_keys=True), self._clock(), key),
            )
            return cursor.rowcount > 0

    # ------------------------------------------------------------------
    # The lease / heartbeat / complete / fail cycle
    # ------------------------------------------------------------------
    def lease(self, worker_id: str, limit: int = 1) -> List[LeasedJob]:
        """Atomically claim up to ``limit`` runnable jobs for ``worker_id``.

        Runnable means *pending past its backoff gate* or *leased with an
        expired lease* (the holder is presumed dead; reclaiming charges a
        fresh attempt).  A job whose attempts already reached
        ``max_attempts`` is quarantined instead of re-leased, so a run that
        keeps killing its workers can never wedge the queue.
        """
        leased: List[LeasedJob] = []
        with self._tx() as conn:
            now = self._clock()
            rows = conn.execute(
                "SELECT key, kind, params, attempts, state, error FROM jobs "
                "WHERE (state = 'pending' AND not_before <= ?) "
                "   OR (state = 'leased' AND lease_expires IS NOT NULL "
                "       AND lease_expires <= ?) "
                "ORDER BY rowid LIMIT ?",
                (now, now, int(limit)),
            ).fetchall()
            for row in rows:
                if row["attempts"] >= self.max_attempts:
                    error = row["error"] or (
                        f"lease expired after {row['attempts']} attempt(s) "
                        "(worker died?)"
                    )
                    self._poison_locked(conn, row["key"], error, now)
                    continue
                attempt = row["attempts"] + 1
                conn.execute(
                    "UPDATE jobs SET state = 'leased', lease_owner = ?, "
                    "lease_expires = ?, attempts = ? WHERE key = ?",
                    (worker_id, now + self.lease_seconds, attempt, row["key"]),
                )
                leased.append(
                    LeasedJob(
                        key=row["key"],
                        kind=row["kind"],
                        params=dict(json.loads(row["params"])),
                        attempt=attempt,
                    )
                )
        return leased

    def heartbeat(self, worker_id: str) -> int:
        """Extend every lease ``worker_id`` currently holds; returns how many."""
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_expires = ? "
                "WHERE state = 'leased' AND lease_owner = ?",
                (self._clock() + self.lease_seconds, worker_id),
            )
            return cursor.rowcount

    def complete(
        self, key: str, payload: Mapping[str, Any], elapsed: float, worker_id: str
    ) -> bool:
        """Persist a finished run's payload; False if the lease was lost.

        Lease-checked: a worker that stalled past its lease (and whose job
        was reclaimed and completed by someone else) gets ``False`` back and
        its result is discarded — the payloads are deterministic, so the
        reclaiming worker stored the identical bytes.
        """
        with self._tx() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET state = 'done', payload = ?, elapsed = ?, "
                "completed_at = ?, lease_owner = NULL, lease_expires = NULL "
                "WHERE key = ? AND state = 'leased' AND lease_owner = ?",
                (
                    json.dumps(dict(payload), sort_keys=True),
                    float(elapsed),
                    self._clock(),
                    key,
                    worker_id,
                ),
            )
            return cursor.rowcount > 0

    def fail(self, key: str, error: str, worker_id: str) -> str:
        """Record a failed attempt: retry with backoff, or quarantine.

        Returns the job's new state (``'pending'``, ``'poisoned'``, or
        ``'stale'`` when the lease was already lost — a stale failure report
        changes nothing).
        """
        with self._tx() as conn:
            now = self._clock()
            row = conn.execute(
                "SELECT attempts FROM jobs "
                "WHERE key = ? AND state = 'leased' AND lease_owner = ?",
                (key, worker_id),
            ).fetchone()
            if row is None:
                return "stale"
            if row["attempts"] >= self.max_attempts:
                self._poison_locked(conn, key, error, now)
                return "poisoned"
            delay = min(
                self.backoff_cap, self.backoff_base * (2.0 ** (row["attempts"] - 1))
            )
            conn.execute(
                "UPDATE jobs SET state = 'pending', lease_owner = NULL, "
                "lease_expires = NULL, not_before = ?, error = ? WHERE key = ?",
                (now + delay, error, key),
            )
            return "pending"

    def _poison_locked(self, conn: sqlite3.Connection, key: str, error: str, now: float) -> None:
        """Quarantine a job (caller holds the transaction)."""
        row = conn.execute(
            "SELECT kind, params, attempts FROM jobs WHERE key = ?", (key,)
        ).fetchone()
        conn.execute(
            "INSERT INTO poison (key, kind, params, attempts, error, quarantined_at) "
            "VALUES (?, ?, ?, ?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET attempts = excluded.attempts, "
            "error = excluded.error, quarantined_at = excluded.quarantined_at",
            (key, row["kind"], row["params"], row["attempts"], error, now),
        )
        conn.execute(
            "UPDATE jobs SET state = 'poisoned', lease_owner = NULL, "
            "lease_expires = NULL, error = ? WHERE key = ?",
            (error, key),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def unfinished(self) -> int:
        """Jobs that still need work (pending or leased)."""
        row = self._conn.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE state IN ('pending', 'leased')"
        ).fetchone()
        return int(row["n"])

    def attempts_by_key(self) -> Dict[str, int]:
        """Every job's attempt counter (poison included) — the ≤ max_attempts audit."""
        rows = self._conn.execute("SELECT key, attempts FROM jobs").fetchall()
        return {row["key"]: int(row["attempts"]) for row in rows}

    def status(self) -> QueueStatus:
        """A consistent snapshot for reporting."""
        now = self._clock()
        counts = {
            row["state"]: int(row["n"])
            for row in self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            )
        }
        eligible = int(
            self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE state = 'pending' AND not_before <= ?",
                (now,),
            ).fetchone()["n"]
        )
        backing_off = counts.get("pending", 0) - eligible
        expired = int(
            self._conn.execute(
                "SELECT COUNT(*) AS n FROM jobs WHERE state = 'leased' "
                "AND lease_expires IS NOT NULL AND lease_expires <= ?",
                (now,),
            ).fetchone()["n"]
        )
        max_seen = self._conn.execute(
            "SELECT COALESCE(MAX(attempts), 0) AS n FROM jobs"
        ).fetchone()["n"]
        poison = tuple(
            (row["key"], row["kind"], int(row["attempts"]), row["error"] or "")
            for row in self._conn.execute(
                "SELECT key, kind, attempts, error FROM poison ORDER BY key"
            )
        )
        campaigns = tuple(
            row["campaign"]
            for row in self._conn.execute(
                "SELECT DISTINCT campaign FROM positions ORDER BY campaign"
            )
        )
        return QueueStatus(
            counts=counts,
            eligible=eligible,
            backing_off=backing_off,
            expired_leases=expired,
            max_attempts_seen=int(max_seen),
            poison=poison,
            campaigns=campaigns,
        )

    def campaigns(self) -> List[str]:
        """Campaign names with recorded grid positions."""
        return list(self.status().campaigns)

    def done_keys(self) -> frozenset:
        """Content keys of every completed job."""
        rows = self._conn.execute("SELECT key FROM jobs WHERE state = 'done'").fetchall()
        return frozenset(row["key"] for row in rows)

    # ------------------------------------------------------------------
    # Record reassembly
    # ------------------------------------------------------------------
    def records_for(
        self, campaign: str, *, cached_keys: frozenset = frozenset()
    ) -> List[RunRecord]:
        """The campaign's grid-order records, reassembled from the database.

        Raises :class:`PoisonedRunsError` when any grid position's job was
        quarantined (listing every poison run), and :class:`CampaignError`
        when positions are still unfinished — both are reports, never silent
        drops.  ``cached_keys`` marks which records should carry
        ``cached=True`` (jobs that were already done before this drain).
        """
        rows = self._conn.execute(
            "SELECT p.idx, p.key, p.kind, p.params, j.state, j.payload, "
            "j.elapsed, j.attempts, j.error "
            "FROM positions AS p LEFT JOIN jobs AS j ON j.key = p.key "
            "WHERE p.campaign = ? ORDER BY p.idx",
            (campaign,),
        ).fetchall()
        if not rows:
            raise CampaignError(f"no positions recorded for campaign {campaign!r}")
        poisoned = [
            (row["key"], int(row["attempts"]), row["error"] or "")
            for row in rows
            if row["state"] == "poisoned"
        ]
        if poisoned:
            details = "; ".join(
                f"{key[:12]}… after {attempts} attempt(s): {error}"
                for key, attempts, error in sorted(set(poisoned))
            )
            raise PoisonedRunsError(
                f"campaign {campaign!r} has {len(set(poisoned))} poisoned run(s) "
                f"in quarantine — {details}"
            )
        unfinished = sum(1 for row in rows if row["state"] != "done")
        if unfinished:
            raise CampaignError(
                f"campaign {campaign!r} still has {unfinished} unfinished "
                "position(s); drain the queue or resume to continue"
            )
        records: List[RunRecord] = []
        for row in rows:
            cached = row["key"] in cached_keys
            records.append(
                RunRecord(
                    index=int(row["idx"]),
                    key=row["key"],
                    kind=row["kind"],
                    params=dict(json.loads(row["params"])),
                    payload=dict(json.loads(row["payload"])),
                    cached=cached,
                    elapsed=0.0 if cached else float(row["elapsed"] or 0.0),
                )
            )
        return records


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------

@dataclass
class WorkerReport:
    """What one worker did before exiting."""

    worker_id: str
    leased: int = 0
    completed: int = 0
    failed: int = 0
    lost_leases: int = 0


class QueueWorker:
    """One draining worker: lease → execute → persist, until the queue is dry.

    Designed to be killed: all state worth keeping lives in the queue
    database and the (directory-backed) result cache, both written before a
    job is acknowledged.  Restarting a worker — or starting a different one —
    resumes exactly where the dead one's leases expire.

    Parameters
    ----------
    queue:
        A :class:`JobQueue` or a database path (each worker process must own
        its own connection — pass a path when forking).
    cache:
        Optional :class:`ResultCache`; completed payloads are persisted to it
        immediately after the queue acknowledges them.
    batch:
        Jobs claimed per lease call.
    injector:
        Optional :class:`~repro.campaign.faults.FaultInjector` consulted
        before each run and after each completion (the chaos harness).
    max_runs:
        Stop after completing/failing this many runs (used by resume tests
        to interrupt a drain mid-way); ``None`` runs until the queue is dry.
    poll_interval:
        Sleep between lease calls while other workers' leases or backoff
        gates still block the remaining jobs.
    """

    def __init__(
        self,
        queue: Union[JobQueue, str, Path],
        worker_id: Optional[str] = None,
        *,
        cache: Optional[ResultCache] = None,
        batch: int = 1,
        injector: Optional[FaultInjector] = None,
        max_runs: Optional[int] = None,
        poll_interval: float = 0.05,
    ) -> None:
        self.queue = queue if isinstance(queue, JobQueue) else JobQueue(queue)
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.cache = cache
        self.batch = max(1, int(batch))
        self.injector = injector
        self.max_runs = max_runs
        self.poll_interval = poll_interval

    def run(self) -> WorkerReport:
        """Drain until the queue has no unfinished jobs (or ``max_runs``)."""
        report = WorkerReport(worker_id=self.worker_id)
        executed = 0
        while self.max_runs is None or executed < self.max_runs:
            budget = self.batch
            if self.max_runs is not None:
                budget = min(budget, self.max_runs - executed)
            jobs = self.queue.lease(self.worker_id, budget)
            if not jobs:
                if self.queue.unfinished() == 0:
                    break
                time.sleep(self.poll_interval)
                continue
            report.leased += len(jobs)
            for job in jobs:
                executed += 1
                self._execute_one(job, report)
                if job is not jobs[-1]:
                    # Keep the rest of the batch alive while we work through
                    # it; after the batch's last job no lease is left.
                    self.queue.heartbeat(self.worker_id)
        return report

    def _execute_one(self, job: LeasedJob, report: WorkerReport) -> None:
        try:
            if self.injector is not None:
                self.injector.before_run(job.key, job.attempt)
            started = time.perf_counter()
            payload = execute_spec(job.run_spec())
            elapsed = time.perf_counter() - started
        except Exception as error:
            report.failed += 1
            self.queue.fail(job.key, f"{type(error).__name__}: {error}", self.worker_id)
            return
        if self.queue.complete(job.key, payload, elapsed, self.worker_id):
            report.completed += 1
            if self.cache is not None:
                self.cache.put(job.key, payload)
            if self.injector is not None:
                self.injector.after_complete(job.key, job.attempt, self.cache)
        else:
            report.lost_leases += 1


def _worker_entry(
    path: str,
    worker_id: str,
    cache_dir: Optional[str],
    plan: Optional[FaultPlan],
    batch: int,
    max_runs: Optional[int],
    poll_interval: float,
) -> None:
    """Child-process entry point: open own connections, drain, exit 0."""
    worker = QueueWorker(
        JobQueue(path),
        worker_id,
        cache=ResultCache(cache_dir) if cache_dir else None,
        batch=batch,
        injector=FaultInjector(plan) if plan is not None else None,
        max_runs=max_runs,
        poll_interval=poll_interval,
    )
    worker.run()


@dataclass
class DrainReport:
    """What a parent-side drain observed."""

    workers: int
    deaths: int
    respawns: int
    elapsed: float


def drain_queue(
    path: Union[str, Path],
    *,
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_respawns: int = 6,
    batch: int = 1,
    max_runs_per_worker: Optional[int] = None,
    poll_interval: float = 0.02,
) -> DrainReport:
    """Drain a queue with ``workers`` detachable worker processes.

    The parent only *monitors*: workers lease straight from the database, so
    the parent holds no in-flight state a crash could lose.  A worker that
    dies (chaos SIGKILL, OOM, a genuine crash) is respawned — its leases
    expire and are reclaimed — up to ``max_respawns`` times; past the budget
    the drain raises :class:`CampaignError` and the queue is left resumable.

    A worker that exits cleanly is retired: workers exit 0 only when the
    queue has no unfinished jobs (or after ``max_runs_per_worker``, which
    resume tests use to interrupt a drain deliberately).
    """
    _check_max_respawns(max_respawns)
    started = time.perf_counter()
    context = fork_context()
    path = str(path)
    cache_dir = str(cache_dir) if cache_dir is not None else None
    if cache_dir is not None:
        # An unusable directory fails here once, not in every forked worker.
        ResultCache(cache_dir)
    queue = JobQueue(path)
    try:
        deaths = 0
        respawns = 0
        serial = 0

        def spawn() -> BaseProcess:
            nonlocal serial
            serial += 1
            process = context.Process(
                target=_worker_entry,
                args=(
                    path,
                    f"drain-{os.getpid()}-{serial}",
                    cache_dir,
                    fault_plan,
                    batch,
                    max_runs_per_worker,
                    poll_interval,
                ),
                daemon=True,
            )
            process.start()
            return process

        alive = [spawn() for _ in range(max(1, workers))]
        try:
            while True:
                if queue.unfinished() == 0:
                    break
                still_alive: List[BaseProcess] = []
                for process in alive:
                    if process.is_alive():
                        still_alive.append(process)
                        continue
                    process.join()
                    if process.exitcode == 0:
                        # Retired deliberately (max_runs_per_worker) — clean
                        # exits with work remaining are never respawned.
                        continue
                    deaths += 1
                    if respawns < max_respawns:
                        respawns += 1
                        still_alive.append(spawn())
                alive = still_alive
                if not alive and queue.unfinished() > 0:
                    # No workers left with work remaining.  Workers exit 0
                    # only when the queue is dry or their run budget is
                    # spent, and every death within budget was respawned
                    # above — so this is either an exhausted respawn budget
                    # (give up resumably) or a deliberate interruption.
                    if deaths > respawns:
                        raise CampaignError(
                            f"drain interrupted: {deaths} worker death(s) "
                            f"exceeded the respawn budget ({max_respawns}) with "
                            f"{queue.unfinished()} job(s) unfinished — the queue "
                            "is durable; resume to continue"
                        )
                    break
                time.sleep(poll_interval)
        finally:
            for process in alive:
                process.join(timeout=30.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
        return DrainReport(
            workers=max(1, workers),
            deaths=deaths,
            respawns=respawns,
            elapsed=time.perf_counter() - started,
        )
    finally:
        queue.close()


# ----------------------------------------------------------------------
# The queue-backed campaign engine
# ----------------------------------------------------------------------

class DurableCampaignEngine(CampaignEngine):
    """A :class:`CampaignEngine` whose ``run()`` goes through the durable queue.

    Drop-in for every experiment harness (they all call ``engine.run(spec)``),
    which is how ``repro campaign <name> --resume <db>`` makes *any* campaign
    crash-safe: expansion enqueues idempotently, execution is a monitored
    drain by detachable worker processes, and records are reassembled from
    the database — so a second invocation after a crash (of workers *or* the
    parent) resumes instead of restarting.

    Records are written to ``jsonl_path`` in canonical form (volatile
    ``cached``/``elapsed`` normalized), so resumed and single-shot drains of
    the same campaign produce byte-identical files.
    """

    def __init__(
        self,
        db_path: Union[str, Path],
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        jsonl_path: Optional[Union[str, Path]] = None,
        *,
        fault_plan: Union[FaultPlan, Callable[[List[str]], FaultPlan], None] = None,
        max_respawns: int = 6,
        max_runs_per_worker: Optional[int] = None,
        batch: int = 1,
        lease_seconds: Optional[float] = None,
        max_attempts: Optional[int] = None,
        backoff_base: Optional[float] = None,
        backoff_cap: Optional[float] = None,
    ) -> None:
        super().__init__(workers=workers, cache=cache, jsonl_path=jsonl_path)
        _check_policy(lease_seconds, max_attempts)
        _check_max_respawns(max_respawns)
        self.db_path = Path(db_path)
        self.fault_plan = fault_plan
        self.max_respawns = max_respawns
        self.max_runs_per_worker = max_runs_per_worker
        self.batch = batch
        self._queue_policy = {
            "lease_seconds": lease_seconds,
            "max_attempts": max_attempts,
            "backoff_base": backoff_base,
            "backoff_cap": backoff_cap,
        }

    def open_queue(self) -> JobQueue:
        """A fresh connection to the engine's queue database."""
        return JobQueue(self.db_path, **self._queue_policy)

    def run(self, spec: CampaignSpec) -> CampaignResult:
        """Enqueue (idempotent), drain with worker processes, reassemble."""
        started = time.perf_counter()
        cache_hits = cache_misses = 0
        with self.open_queue() as queue:
            report = self.enqueue_report = queue.enqueue(spec)
            deduplicated = report.positions - (
                report.new_jobs + report.existing_jobs + report.already_done
            )
            # Pre-resolve new jobs against the result cache: a payload the
            # cache already holds never needs a worker.
            if self.cache is not None:
                for key in sorted(
                    set(
                        row[0]
                        for row in queue._conn.execute(
                            "SELECT key FROM jobs WHERE state = 'pending'"
                        )
                    )
                ):
                    cached = self.cache.get(key)
                    if cached is not None:
                        queue.record_done(key, cached)
                        cache_hits += 1
                    else:
                        cache_misses += 1
            pre_done = queue.done_keys()
            # A chaos plan may be given as a callable over the campaign's run
            # keys — they are only known after enqueue (how the CLI's
            # count-based --chaos-* flags become a concrete sampled plan).
            plan = self.fault_plan
            if callable(plan):
                keys = sorted(
                    {
                        row[0]
                        for row in queue._conn.execute(
                            "SELECT key FROM positions WHERE campaign = ?",
                            (spec.name,),
                        )
                    }
                )
                plan = plan(keys)
        # The parent's connection is closed before forking workers — each
        # process must own its sqlite handle.
        cache_dir = (
            str(self.cache.directory)
            if self.cache is not None and self.cache.directory is not None
            else None
        )
        self.drain_report = drain_queue(
            self.db_path,
            workers=self.workers,
            cache_dir=cache_dir,
            fault_plan=plan,
            max_respawns=self.max_respawns,
            batch=self.batch,
            max_runs_per_worker=self.max_runs_per_worker,
        )
        with self.open_queue() as queue:
            records = queue.records_for(spec.name, cached_keys=pre_done)
        if self.jsonl_path is not None:
            write_jsonl(records, self.jsonl_path, canonical=True)
        return CampaignResult(
            spec=spec,
            records=records,
            elapsed=time.perf_counter() - started,
            workers=self.workers,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            deduplicated=deduplicated,
        )
