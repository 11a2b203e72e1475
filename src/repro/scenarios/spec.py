"""Declarative scenario specifications.

A :class:`ScenarioSpec` names a registered family, its JSON-normalized
parameters, and an ordered list of perturbation directives — everything a
worker process, a cache key or a campaign axis needs to reconstruct the exact
same schedule stream.  :func:`build_scenario` turns a spec into a live
:class:`~repro.schedules.base.ScheduleGenerator`; :func:`build_generator` is
the campaign-facing spelling that reads the family from the ``"schedule"``
parameter (and the perturbation list from ``"perturbations"``), so a campaign
sweeps scenario families exactly like numeric axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from ..errors import ConfigurationError
from ..schedules.base import ScheduleGenerator
from .combinators import perturb
from .families import family

#: Parameter keys that select/shape the scenario rather than configure the
#: family builder (builders ignore unknown keys, so stripping is cosmetic —
#: but it keeps ``ScenarioSpec.params`` an honest family-parameter dict).
_SPEC_KEYS = ("schedule", "perturbations")


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: family + parameters + perturbations.

    ``perturbations`` is an ordered tuple of directives, each a mapping with
    ``kind`` (``"noise"`` or ``"stutter"``), ``rate`` and ``seed``; they are
    applied left to right around the family's generator.
    """

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    perturbations: Tuple[Mapping[str, Any], ...] = ()

    def build(self) -> ScheduleGenerator:
        """Instantiate the scenario's schedule generator."""
        return build_scenario(self)

    def to_campaign_params(self) -> Dict[str, Any]:
        """Flatten into a campaign parameter dict (``schedule`` selects the family)."""
        flat: Dict[str, Any] = dict(self.params)
        flat["schedule"] = self.family
        if self.perturbations:
            flat["perturbations"] = [dict(p) for p in self.perturbations]
        return flat

    def describe(self) -> str:
        """Readable one-liner (the built generator's own description)."""
        return self.build().description


def build_scenario(spec: ScenarioSpec) -> ScheduleGenerator:
    """Build the schedule generator a :class:`ScenarioSpec` describes."""
    registered = family(spec.family)
    try:
        generator = registered.builder(dict(spec.params))
    except KeyError as missing:
        raise ConfigurationError(
            f"scenario family {spec.family!r} requires parameter {missing.args[0]!r}"
        ) from missing
    except ConfigurationError:
        raise
    except (ValueError, TypeError) as error:
        # A malformed value (``p_set=x``) fails inside the builder's
        # conversions; report it as a configuration mistake, not a crash.
        raise ConfigurationError(
            f"scenario family {spec.family!r} got a bad parameter value: {error}"
        ) from error
    for directive in spec.perturbations:
        generator = perturb(
            generator,
            kind=str(directive.get("kind", "noise")),
            rate=float(directive.get("rate", 0.1)),
            seed=int(directive.get("seed", 0)),
        )
    return generator


def build_generator(params: Mapping[str, Any]) -> ScheduleGenerator:
    """Instantiate the scenario selected by ``params['schedule']``.

    This is the campaign/CLI entry point: one flat JSON-normalized parameter
    dict, with ``schedule`` naming the family (default ``"set-timely"``) and
    an optional ``perturbations`` list of directives.  All other keys are
    forwarded to the family builder, which takes what it knows and ignores
    the rest (experiment parameters like ``t``/``k``/``horizon`` ride in the
    same dict).
    """
    family_params = {key: value for key, value in params.items() if key not in _SPEC_KEYS}
    perturbations: List[Mapping[str, Any]] = list(params.get("perturbations") or ())
    return build_scenario(
        ScenarioSpec(
            family=str(params.get("schedule", "set-timely")),
            params=family_params,
            perturbations=tuple(perturbations),
        )
    )
