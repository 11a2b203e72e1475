"""Declarative campaign specifications and their deterministic expansion.

A :class:`CampaignSpec` describes a family of runs without executing anything:

* ``base`` — parameters shared by every run;
* ``runs`` — an optional explicit list of parameter overrides (the paper's
  hand-picked sweeps, e.g. the seven E2 configurations);
* ``axes`` — an optional mapping ``name -> values``; the cross product of all
  axes is applied on top of every explicit run (seed sweeps, policy sweeps).

``expand()`` is pure and deterministic: the same spec always yields the same
:class:`RunSpec` list in the same order (explicit runs in declaration order,
axes in declaration order, each axis's values in the given order).  That
determinism is what makes result caching and worker-count invariance testable.

Content addressing: a run is identified by the canonical JSON of its
``(kind, params)`` pair, hashed with SHA-256.  Two runs with equal keys are
the same experiment by construction, so the engine executes only one of them.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError


def _jsonable(value: Any) -> Any:
    """Normalize a parameter value into plain JSON types, deterministically.

    Sets (including frozensets) become sorted lists, tuples become lists,
    mappings are rebuilt with string keys.  Anything that survives
    ``json.dumps`` afterwards is allowed; anything else is rejected so that a
    non-serializable parameter fails at spec-construction time, not inside a
    worker process.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise ConfigurationError(
        f"campaign parameter value {value!r} is not JSON-serializable; "
        "use scalars, lists/tuples, sets or mappings of those"
    )


def canonical_json(value: Any) -> str:
    """The canonical (sorted-key, compact) JSON rendering used for hashing."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


def content_key(kind: str, params: Mapping[str, Any]) -> str:
    """SHA-256 content address of one run's ``(kind, params)`` identity."""
    return _keyed(kind, canonical_json(params))


def _keyed(kind: str, params_json: str) -> str:
    """The content address of ``kind`` and its parameters' canonical JSON."""
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(params_json.encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """One fully resolved run: an experiment kind plus its parameters.

    ``params`` is stored JSON-normalized (lists instead of sets/tuples), so a
    spec round-trips unchanged through the cache and through worker processes.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...]

    @staticmethod
    def create(kind: str, params: Mapping[str, Any]) -> "RunSpec":
        """A run of ``kind`` with ``params`` JSON-normalized and sorted by name."""
        normalized = tuple(sorted((str(k), _jsonable(v)) for k, v in params.items()))
        return RunSpec(kind=kind, params=normalized)

    def param_dict(self) -> Dict[str, Any]:
        """The parameters as a plain (mutable) dict."""
        return {k: v for k, v in self.params}

    def key(self) -> str:
        """The run's content address: :func:`content_key` of ``kind`` and the params.

        ``params`` is already JSON-normalized, so it is serialized as it is.
        """
        return _keyed(
            self.kind, json.dumps(self.param_dict(), sort_keys=True, separators=(",", ":"))
        )


@dataclass
class CampaignSpec:
    """A declarative grid of runs of one experiment kind.

    Parameters
    ----------
    name:
        Campaign identifier (used in reports and JSON-lines records).
    kind:
        The experiment kind every run executes (see :mod:`repro.campaign.runner`).
    base:
        Parameters shared by every run.
    runs:
        Explicit parameter overrides, one per run.  Defaults to a single empty
        override (i.e. the campaign is the pure axes grid over ``base``).
    axes:
        Mapping ``axis name -> values``; the cross product of all axes is
        applied on top of every explicit run.  Later sources win:
        ``base < run < axis assignment``.
    """

    name: str
    kind: str
    base: Dict[str, Any] = field(default_factory=dict)
    runs: Optional[Sequence[Mapping[str, Any]]] = None
    axes: Optional[Mapping[str, Sequence[Any]]] = None

    def expand(self) -> List[RunSpec]:
        """Expand to the full run list, deterministically."""
        explicit: Sequence[Mapping[str, Any]] = self.runs if self.runs is not None else [{}]
        if not explicit:
            raise ConfigurationError(f"campaign {self.name!r} has an empty run list")
        axis_names: List[str] = list(self.axes.keys()) if self.axes else []
        axis_values: List[Sequence[Any]] = [list(self.axes[name]) for name in axis_names]
        for name, values in zip(axis_names, axis_values):
            if not values:
                raise ConfigurationError(
                    f"axis {name!r} of campaign {self.name!r} has no values"
                )
        specs: List[RunSpec] = []
        for overrides in explicit:
            for assignment in product(*axis_values) if axis_names else [()]:
                params: Dict[str, Any] = dict(self.base)
                params.update(overrides)
                params.update(zip(axis_names, assignment))
                specs.append(RunSpec.create(self.kind, params))
        return specs

    def describe(self) -> str:
        """A one-line summary: name, kind, run count and axis sizes."""
        run_count = len(self.runs) if self.runs is not None else 1
        axis_part = (
            " × ".join(f"{name}[{len(values)}]" for name, values in (self.axes or {}).items())
            or "no axes"
        )
        return f"<Campaign {self.name}: kind={self.kind}, {run_count} run(s) × {axis_part}>"
