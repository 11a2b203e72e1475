"""Content-addressed result cache for campaign runs.

A run's identity is the SHA-256 of its canonical ``(kind, params)`` JSON (see
:func:`repro.campaign.spec.content_key`).  Because every run kind is
deterministic given its parameters, equal keys mean equal results — so the
cache both deduplicates repeated configurations *within* a campaign and
persists results *across* campaigns when given a directory.

Without a directory the cache is a plain in-process dictionary; with one,
payloads are stored as ``<dir>/<key[:2]>/<key>.json`` (two-level fan-out keeps
directories small for large sweeps).  Writes go through a temp file + rename
so a crashed run never leaves a truncated entry behind, and reads *validate*:
an entry that does not parse back into a JSON object is quarantined (deleted)
and reported as a miss by both :meth:`ResultCache.get` and
:meth:`ResultCache.contains`, so a corrupted file can only ever cost a
re-execution, never a wedged campaign.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..errors import ConfigurationError


class ResultCache:
    """Content-addressed payload store with hit/miss accounting.

    A ``directory`` that cannot be created (an existing regular file, say)
    raises :class:`~repro.errors.ConfigurationError` at construction.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as error:
                raise ConfigurationError(
                    f"cannot use {str(self.directory)!r} as a cache directory: "
                    f"{error.strerror or error}"
                ) from error
        self._memory: Dict[str, Dict[str, Any]] = {}
        self.hits = 0
        self.misses = 0
        #: Corrupt on-disk entries deleted on sight (see :meth:`_load_disk`).
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

    def _load_disk(self, key: str) -> Optional[Dict[str, Any]]:
        """Read and validate the on-disk entry for ``key``, or None.

        Validation and quarantine live here so :meth:`get` and
        :meth:`contains` cannot diverge: an entry that fails to parse as a
        JSON object (truncated write, corrupted disk, injected fault) is
        *quarantined* — deleted on sight — so it reads as a miss everywhere
        and the next execution repopulates it, instead of ``contains()``
        promising a payload that ``get()`` cannot deliver.
        """
        path = self._path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if not isinstance(payload, dict):
            self.quarantined += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletions are fine
                pass
            return None
        self._memory[key] = payload
        return payload

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or None; updates hit/miss counters.

        A corrupt on-disk entry is quarantined (deleted) and reported as a
        miss — see :meth:`_load_disk`.
        """
        payload = self._memory.get(key)
        if payload is None and self.directory is not None:
            payload = self._load_disk(key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return dict(payload)

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store a payload under its content key (memory + optional directory)."""
        self._memory[key] = dict(payload)
        if self.directory is None:
            return
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    def contains(self, key: str) -> bool:
        """Whether ``key`` would be served by :meth:`get` (no hit/miss update).

        Validates on-disk entries exactly like :meth:`get` — a corrupt entry
        is quarantined and reported absent, never claimed and then missed.
        """
        if key in self._memory:
            return True
        return self.directory is not None and self._load_disk(key) is not None

    def __len__(self) -> int:
        if self.directory is None:
            return len(self._memory)
        on_disk = sum(1 for _ in self.directory.glob("*/*.json"))
        return max(on_disk, len(self._memory))
