"""Structured per-run records and their JSON-lines persistence.

Every executed (or cache-served) run produces one :class:`RunRecord`; a
campaign's record list, in grid order, is the ground truth every table is
aggregated from.  Records are plain JSON all the way down, so a JSON-lines
file written by one campaign can be re-aggregated later (``repro report``)
without re-running anything.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Union

from ..errors import ConfigurationError


@dataclass(frozen=True)
class RunRecord:
    """One run's identity, parameters and measured payload.

    Attributes
    ----------
    index:
        Position in the campaign's expanded grid (stable across worker counts).
    key:
        Content address of ``(kind, params)`` — the cache key.
    kind:
        Experiment kind that executed the run.
    params:
        The run's parameters (JSON-normalized).
    payload:
        The run's measured results (JSON-normalized).
    cached:
        True when the payload was served from the result cache.
    elapsed:
        Wall-clock seconds spent executing this run (0.0 for cache hits).
    """

    index: int
    key: str
    kind: str
    params: Dict[str, Any]
    payload: Dict[str, Any]
    cached: bool = False
    elapsed: float = 0.0

    def to_json_line(self) -> str:
        """This record as one compact JSON line with sorted keys (no newline).

        The fields are serialized as they are: ``params`` and ``payload`` are
        already plain JSON, so the deep copy :func:`dataclasses.asdict` makes
        of them would only cost time.
        """
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))

    def canonical(self) -> "RunRecord":
        """This record with the volatile execution fields normalized away.

        ``cached`` and ``elapsed`` describe *how* a payload was obtained
        (served from cache vs. executed, and how long the execution took) —
        they legitimately differ between a fresh run, a cache-served replay,
        and a crash-resumed queue drain.  Everything else is the scientific
        record, which must be byte-identical across all of those paths; the
        chaos differential tests compare canonical records.
        """
        return replace(self, cached=False, elapsed=0.0)

    @staticmethod
    def from_json_line(line: str) -> "RunRecord":
        """Parse one :meth:`to_json_line` line; ``cached`` and ``elapsed`` may be absent."""
        raw = json.loads(line)
        return RunRecord(
            index=int(raw["index"]),
            key=str(raw["key"]),
            kind=str(raw["kind"]),
            params=dict(raw["params"]),
            payload=dict(raw["payload"]),
            cached=bool(raw.get("cached", False)),
            elapsed=float(raw.get("elapsed", 0.0)),
        )


def record_columns(records: Iterable[RunRecord]) -> "tuple[List[str], List[str]]":
    """Parameter and payload column names across records, in first-seen order.

    Shared by every record-level tabulation (``CampaignResult.table()``,
    ``repro report``) so column discovery and ordering cannot diverge.
    """
    param_keys: List[str] = []
    payload_keys: List[str] = []
    for record in records:
        for key in record.params:
            if key not in param_keys:
                param_keys.append(key)
        for key in record.payload:
            if key not in payload_keys:
                payload_keys.append(key)
    return param_keys, payload_keys


def write_jsonl(
    records: Iterable[RunRecord], path: Union[str, Path], canonical: bool = False
) -> int:
    """Write records to a JSON-lines file (one record per line); returns the count.

    The write is atomic: records land in a sibling temp file that is
    ``os.replace``-d over the target only once every line is flushed, matching
    :meth:`ResultCache.put`.  A crash mid-write therefore never leaves a
    truncated record file behind — the reader sees either the previous
    complete file or the new one.

    ``canonical=True`` writes :meth:`RunRecord.canonical` forms (volatile
    ``cached``/``elapsed`` fields normalized), which is what the durable-queue
    drain emits so resumed and single-shot campaigns compare byte-identical.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    count = 0
    with tmp.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write((record.canonical() if canonical else record).to_json_line())
            handle.write("\n")
            count += 1
    os.replace(tmp, target)
    return count


def read_jsonl(path: Union[str, Path]) -> List[RunRecord]:
    """Read a JSON-lines record file back, skipping blank lines.

    A line that is not a run record raises :class:`ConfigurationError`
    naming the file and the line's 1-based number.
    """
    records: List[RunRecord] = []
    with Path(path).open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    records.append(RunRecord.from_json_line(line))
            except (KeyError, TypeError, ValueError) as error:
                reason = f"missing field {error}" if isinstance(error, KeyError) else error
                raise ConfigurationError(
                    f"{path}, line {number}: not a run record ({reason})"
                ) from error
    return records
