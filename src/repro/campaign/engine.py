"""The campaign engine: expansion, deduplication, dispatch, aggregation.

Execution pipeline for one :class:`~repro.campaign.spec.CampaignSpec`:

1. **Expand** the spec into its deterministic run list.
2. **Deduplicate** by content key — repeated (schedule, algorithm)
   configurations execute once and fan their payload back to every position.
3. **Resolve** keys against the optional :class:`~repro.campaign.cache.ResultCache`.
4. **Batch** the remaining unique runs by schedule identity
   (:func:`~repro.campaign.runner.schedule_signature`), so replicas that share
   a scenario land in the same worker chunk and hit the worker-local
   compiled-schedule memo — the scenario's generator chain runs once per
   chunk, every replica after the first replays the flat buffer.
5. **Dispatch**: inline when ``workers <= 1``, otherwise chunked across a
   persistent ``ProcessPoolExecutor`` (fork start method when available —
   workers inherit the loaded library, so spawn cost stays in the low
   milliseconds; the pool survives across ``run()`` invocations until
   :meth:`CampaignEngine.close`).  Chunks are independent futures harvested
   as they complete, each persisted to the result cache on arrival; a dead
   worker (``BrokenProcessPool``) loses only its in-flight chunks, which are
   salvaged and re-dispatched on a fresh pool (see
   :meth:`CampaignEngine._execute_pool`).  Per-run wall time is measured
   *inside* the worker, so the recorded timings stay honest under pooled
   dispatch.
6. **Assemble** one :class:`~repro.campaign.records.RunRecord` per grid
   position, in grid order — the record list is identical for any worker
   count, which is what the worker-invariance tests pin down.
7. Optionally **stream** the records to a JSON-lines file.

Results are returned as a :class:`CampaignResult`, whose ``table()`` renders a
generic parameters×payload table; the paper-specific experiment harnesses
build their own tables directly from the records.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CampaignError, ConfigurationError
from .cache import ResultCache
from .records import RunRecord, record_columns, write_jsonl
from .runner import execute_spec, schedule_signature
from .spec import CampaignSpec, RunSpec

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.context import BaseContext


def fork_context() -> BaseContext:
    """The ``fork`` multiprocessing context, else the platform default.

    Both the pooled dispatch here and the queue's forked drain start their
    workers from it.  :mod:`multiprocessing` is imported on this first call,
    not with the module, so a single-process run never loads it.
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


def _execute_chunk(chunk: List[RunSpec]) -> List[Tuple[Dict[str, Any], float]]:
    """Worker-side entry point: execute a chunk of unique runs in order.

    Returns ``(payload, elapsed_seconds)`` per run, with the wall time
    measured here in the worker: under pooled dispatch the parent only
    observes when a chunk's *result* arrives, which says nothing about how
    long any individual run took.

    The cyclic GC is paused for the duration of the chunk — runs allocate heavily
    but create no reference cycles worth collecting mid-run.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        results: List[Tuple[Dict[str, Any], float]] = []
        for spec in chunk:
            started = time.perf_counter()
            payload = execute_spec(spec)
            results.append((payload, time.perf_counter() - started))
        return results
    finally:
        if gc_was_enabled:
            gc.enable()


@dataclass
class CampaignResult:
    """Everything one engine invocation produced."""

    spec: CampaignSpec
    records: List[RunRecord]
    elapsed: float
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0

    def payloads(self) -> List[Dict[str, Any]]:
        """The payload of every run, in grid order."""
        return [record.payload for record in self.records]

    def table(self) -> Tuple[List[str], List[List[Any]]]:
        """Generic table: parameter columns then payload columns, in first-seen order."""
        param_keys, payload_keys = record_columns(self.records)
        headers = param_keys + payload_keys
        rows = [
            [record.params.get(key) for key in param_keys]
            + [record.payload.get(key) for key in payload_keys]
            for record in self.records
        ]
        return headers, rows

    def summary(self) -> str:
        """One-line outcome: runs, deduplicated runs, cache hits, workers, time."""
        return (
            f"campaign {self.spec.name}: {len(self.records)} run(s), "
            f"{self.deduplicated} deduplicated, {self.cache_hits} cache hit(s), "
            f"{self.workers} worker(s), {self.elapsed:.2f}s"
        )


class CampaignEngine:
    """Executes campaign specs (see module docstring for the pipeline).

    Parameters
    ----------
    workers:
        ``<= 1`` executes inline; ``> 1`` dispatches chunks to that many
        worker processes.
    cache:
        Optional content-addressed result cache.  Even without one, identical
        runs within a campaign are still executed only once.
    chunk_size:
        Runs per dispatched task.  Defaults to spreading the pending runs
        roughly twice over the workers (amortizes task overhead while keeping
        the pool load-balanced).
    jsonl_path:
        When set, the record list is written there as JSON-lines.
    dispatch_retries:
        How many times a pool-breaking worker death (``BrokenProcessPool``)
        may be absorbed per :meth:`run`.  Each death loses only the chunks
        that were in flight — completed chunks are already harvested and
        persisted — and the lost chunks are re-dispatched on a fresh pool.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        chunk_size: Optional[int] = None,
        jsonl_path: Optional[Union[str, Path]] = None,
        dispatch_retries: int = 2,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if dispatch_retries < 0:
            raise ConfigurationError(
                f"dispatch_retries must be >= 0, got {dispatch_retries}"
            )
        self.workers = max(1, workers)
        self.cache = cache
        self.chunk_size = chunk_size
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self.dispatch_retries = dispatch_retries
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created on first parallel dispatch.

        Reusing the pool across :meth:`run` invocations keeps worker-local
        state warm — most importantly the compiled-schedule memo, so a second
        campaign over the same scenarios skips compilation entirely — and
        drops the per-campaign fork cost.
        """
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=fork_context())
        return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def run(self, spec: CampaignSpec) -> CampaignResult:
        """Execute a campaign and return its records in grid order."""
        started = time.perf_counter()
        run_specs = spec.expand()
        keys = [run_spec.key() for run_spec in run_specs]

        # Deduplicate: first occurrence of each key executes, the rest reuse it.
        unique_specs: Dict[str, RunSpec] = {}
        for run_spec, key in zip(run_specs, keys):
            unique_specs.setdefault(key, run_spec)
        deduplicated = len(run_specs) - len(unique_specs)

        payloads: Dict[str, Dict[str, Any]] = {}
        cache_hits = 0
        cache_misses = 0
        if self.cache is not None:
            for key in unique_specs:
                cached = self.cache.get(key)
                if cached is not None:
                    payloads[key] = cached
                    cache_hits += 1
                else:
                    cache_misses += 1

        pending = [(key, run_spec) for key, run_spec in unique_specs.items() if key not in payloads]
        elapsed_by_key: Dict[str, float] = {}
        if pending:
            # Both paths persist each completed payload to the cache the
            # moment it arrives (_persist_completed), so a crash mid-campaign
            # forfeits only genuinely unexecuted work — never finished runs.
            if self.workers > 1:
                self._execute_pool(pending, payloads, elapsed_by_key)
            else:
                self._execute_inline(pending, payloads, elapsed_by_key)

        records = [
            RunRecord(
                index=index,
                key=key,
                kind=run_spec.kind,
                params=run_spec.param_dict(),
                payload=payloads[key],
                cached=key not in elapsed_by_key,
                elapsed=elapsed_by_key.get(key, 0.0),
            )
            for index, (run_spec, key) in enumerate(zip(run_specs, keys))
        ]
        if self.jsonl_path is not None:
            write_jsonl(records, self.jsonl_path)
        return CampaignResult(
            spec=spec,
            records=records,
            elapsed=time.perf_counter() - started,
            workers=self.workers,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            deduplicated=deduplicated,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _batched_by_schedule(
        pending: List[Tuple[str, RunSpec]]
    ) -> List[Tuple[str, RunSpec]]:
        """Reorder pending runs so same-scenario replicas are adjacent.

        Adjacent replicas land in the same dispatch chunk, where the
        worker-local compiled-schedule memo turns all but the first into
        flat-buffer replays.  Grouping preserves first-seen order (of groups
        and within groups), so the reordering is deterministic; record
        assembly is keyed, so grid order is unaffected.
        """
        if len(pending) < 2:
            return pending
        groups: Dict[Tuple[str, str], List[Tuple[str, RunSpec]]] = {}
        for key, run_spec in pending:
            signature = (run_spec.kind, schedule_signature(run_spec.param_dict()))
            groups.setdefault(signature, []).append((key, run_spec))
        return [item for group in groups.values() for item in group]

    def _persist_completed(
        self,
        chunk: List[Tuple[str, RunSpec]],
        chunk_results: List[Tuple[Dict[str, Any], float]],
        payloads: Dict[str, Dict[str, Any]],
        elapsed_by_key: Dict[str, float],
    ) -> None:
        """Harvest one completed chunk, persisting each payload immediately.

        ``cache.put`` runs here — at chunk-arrival time — not after the whole
        campaign: a later crash (worker death, BrokenProcessPool, the parent
        itself dying) can then never forfeit a finished-but-unpersisted
        result.
        """
        for (key, _), (payload, elapsed) in zip(chunk, chunk_results):
            payloads[key] = payload
            elapsed_by_key[key] = elapsed
            if self.cache is not None:
                self.cache.put(key, payload)

    def _execute_inline(
        self,
        pending: List[Tuple[str, RunSpec]],
        payloads: Dict[str, Dict[str, Any]],
        elapsed_by_key: Dict[str, float],
    ) -> None:
        ordered = self._batched_by_schedule(pending)
        self._persist_completed(
            ordered, _execute_chunk([spec for _, spec in ordered]), payloads, elapsed_by_key
        )

    def _execute_pool(
        self,
        pending: List[Tuple[str, RunSpec]],
        payloads: Dict[str, Dict[str, Any]],
        elapsed_by_key: Dict[str, float],
    ) -> None:
        """Chunked submit/as_completed dispatch with worker-death salvage.

        Chunks are submitted as independent futures and harvested as they
        complete.  When a worker dies hard enough to break the pool (SIGKILL,
        segfault — ``BrokenProcessPool`` poisons every unfinished future),
        only the chunks still in flight are lost: everything already
        harvested stays harvested *and persisted*, the broken pool is torn
        down, and the lost chunks are re-dispatched on a fresh pool, up to
        ``dispatch_retries`` pool rebuilds per run.
        """
        from concurrent.futures import BrokenExecutor, as_completed

        ordered = self._batched_by_schedule(pending)
        chunk_size = self.chunk_size
        if chunk_size is None:
            chunk_size = max(1, len(ordered) // (self.workers * 2) or 1)
        remaining: List[List[Tuple[str, RunSpec]]] = [
            ordered[start : start + chunk_size] for start in range(0, len(ordered), chunk_size)
        ]
        pool_breaks = 0
        while remaining:
            pool = self._ensure_pool()
            lost: List[List[Tuple[str, RunSpec]]] = []
            last_break: Optional[BaseException] = None
            try:
                futures = {
                    pool.submit(_execute_chunk, [spec for _, spec in chunk]): chunk
                    for chunk in remaining
                }
                for future in as_completed(futures):
                    chunk = futures[future]
                    try:
                        chunk_results = future.result()
                    except BrokenExecutor as error:
                        # Every future that was in flight when the pool broke
                        # resolves with this error; the chunks are intact in
                        # the parent, so salvage them for re-dispatch.
                        last_break = error
                        lost.append(chunk)
                        continue
                    self._persist_completed(chunk, chunk_results, payloads, elapsed_by_key)
            except BaseException:
                # Anything else (a kind raising, KeyboardInterrupt) must not
                # leak a wedged pool into the next run() — tear it down.
                self.close()
                raise
            if last_break is not None:
                self.close()  # the broken pool cannot take more submissions
                pool_breaks += 1
                if pool_breaks > self.dispatch_retries:
                    raise CampaignError(
                        f"worker pool broke {pool_breaks} time(s); "
                        f"{sum(len(chunk) for chunk in lost)} run(s) in "
                        f"{len(lost)} chunk(s) still pending after "
                        f"{self.dispatch_retries} re-dispatch(es) — completed "
                        "chunks were persisted and re-running resumes from them"
                    ) from last_break
            remaining = lost
