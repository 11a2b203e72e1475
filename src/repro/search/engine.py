"""The adversarial schedule-search engine: falsify → shrink → certify.

One :func:`run_search` call is a guided evolutionary search over candidate
schedules (recipes, see :mod:`repro.search.mutations`) against one registered
property (:mod:`repro.search.properties`):

1. **Falsify.**  Each generation is a population of recipes — elites carried
   from the previous generation, mutations of elites, and fresh random
   candidates — evaluated through the campaign layer: the generation is
   expanded into ``search-eval`` runs of a
   :class:`~repro.campaign.spec.CampaignSpec`, one contiguous run per engine
   worker unless ``eval_chunk`` fixes the run size, so populations dispatch
   across worker processes, identical candidates deduplicate by content
   address, and a :class:`~repro.campaign.cache.ResultCache` makes re-running
   a search resume from cached generations.  Inside a run the whole batch
   screens in one call (:func:`~repro.search.properties.screen_generation`:
   one tracked run per candidate on the property's rewound replica, each
   shared step prefix stepped once), so an inline search screens each
   generation under one prefix-shared plan.  Elites carry their evaluations
   into the next generation, so only the fresh candidates run; a flagged
   candidate's exact verdict reads the trackers of its own run, and only
   flagged candidates pay for certification.
2. **Shrink.**  Surviving findings (confirmed violations, else the best
   near-misses) are minimized by the deterministic delta-debugging loop in
   :mod:`repro.search.shrink`, with the property's exact verdict as the
   predicate.
3. **Certify.**  Every finding — before and after shrinking — carries a
   :class:`~repro.search.certify.CertificationReport`, so a "violation" is
   always explicitly *in-model* (would falsify the paper; expected count: 0)
   or *out-of-model* (an atlas counterexample showing what the theorems do
   **not** promise once the model's premises are dropped).

Determinism: per-generation RNG streams are seeded from
``(seed, property, generation)`` only, selection ties break on recipe content
signatures, and shrinking is RNG-free — the same configuration always
produces the same report (pinned by ``tests/search/test_search_engine.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..campaign.engine import CampaignEngine
from ..campaign.spec import CampaignSpec
from ..campaign.runner import register_kind
from ..core.schedule import CompiledSchedule
from ..core.systems import SystemWitness
from ..errors import ConfigurationError
from .certify import (
    CertificationReport,
    best_witness,
    certify_schedule,
    timeliness_fitness,
)
from .mutations import (
    describe_recipe,
    make_recipe,
    mutate_recipe,
    realize,
    recipe_signature,
)
from .properties import (
    PropertyVerdict,
    ScheduleProperty,
    available_properties,
    make_property,
    screen_generation,
)

#: The fitness signals a search can maximize.
FITNESS_MODES = ("stabilization-delay", "timeliness-bound")

#: Finding kinds, in report order.
IN_MODEL_VIOLATION = "in-model-violation"
OUT_OF_MODEL_VIOLATION = "out-of-model-violation"
NEAR_MISS = "near-miss"


@dataclass(frozen=True)
class SearchConfig:
    """Everything one falsification search needs (all JSON-serializable).

    ``certify_bound`` defaults to ``4 * bound`` — generously above the seed
    scenarios' constructed timeliness bound, so a candidate is only ruled
    out-of-model when its prefix genuinely stops looking set-timely, not on a
    borderline measurement.
    """

    property: str = "k-anti-omega-convergence"
    n: int = 4
    t: int = 2
    k: int = 2
    bound: int = 3
    generations: int = 6
    population: int = 16
    elites: int = 4
    horizon: int = 20_000
    checkpoints: int = 12
    seed: int = 0
    fitness: str = "stabilization-delay"
    near_miss_threshold: float = 0.8
    certify_bound: Optional[int] = None
    #: Prefix length certification analyses (None = the full candidate, so a
    #: mutation near the end of the horizon cannot escape the certifier).
    certify_prefix: Optional[int] = None
    top: int = 3
    shrink_max_evaluations: int = 120
    #: Candidates per ``search-eval`` run (None = one run per engine worker,
    #: so an inline search screens each generation in one prefix-shared plan).
    eval_chunk: Optional[int] = None
    smoke: bool = False

    def __post_init__(self) -> None:
        if self.property not in available_properties():
            raise ConfigurationError(
                f"unknown property {self.property!r}; registered: {available_properties()}"
            )
        if self.fitness not in FITNESS_MODES:
            raise ConfigurationError(
                f"unknown fitness mode {self.fitness!r}; expected one of {FITNESS_MODES}"
            )
        if self.generations < 1 or self.population < 1:
            raise ConfigurationError("generations and population must be >= 1")
        if self.horizon < 2:
            raise ConfigurationError(
                f"horizon must be >= 2 steps, got {self.horizon}; a shorter "
                "candidate schedule cannot carry any mutation"
            )
        if self.checkpoints < 1:
            raise ConfigurationError(f"checkpoints must be >= 1, got {self.checkpoints}")
        if self.elites < 1 or self.elites > self.population:
            raise ConfigurationError("elites must lie in [1, population]")
        if not 0.0 < self.near_miss_threshold <= 1.0:
            raise ConfigurationError("near_miss_threshold must lie in (0, 1]")
        if self.top < 0:
            raise ConfigurationError(f"top must be >= 0 findings to shrink, got {self.top}")
        if self.eval_chunk is not None and self.eval_chunk < 1:
            raise ConfigurationError(f"eval_chunk must be >= 1 candidates, got {self.eval_chunk}")
        if self.certify_bound is not None and self.certify_bound < 1:
            raise ConfigurationError(f"certify_bound must be >= 1, got {self.certify_bound}")
        if self.certify_prefix is not None and self.certify_prefix < 1:
            raise ConfigurationError(
                f"certify_prefix must be >= 1 steps, got {self.certify_prefix}; "
                "an empty schedule prefix cannot be certified"
            )
        if self.shrink_max_evaluations < 1:
            raise ConfigurationError(
                f"shrink_max_evaluations must be >= 1, got {self.shrink_max_evaluations}"
            )

    @staticmethod
    def smoke_config(property_name: str, **overrides: Any) -> "SearchConfig":
        """The small deterministic configuration CI and the `--smoke` flag run."""
        defaults: Dict[str, Any] = dict(
            property=property_name,
            generations=5,
            population=10,
            elites=3,
            horizon=2_400,
            checkpoints=8,
            top=2,
            shrink_max_evaluations=60,
            smoke=True,
        )
        defaults.update(overrides)
        return SearchConfig(**defaults)

    # ------------------------------------------------------------------
    def resolved_certify_bound(self) -> int:
        """The explicit bound certification runs against."""
        return self.certify_bound if self.certify_bound is not None else 4 * self.bound

    def property_params(self) -> Dict[str, int]:
        """The ``(n, t, k)`` the property object is built from."""
        return {"n": self.n, "t": self.t, "k": self.k}

    def focus_pids(self) -> List[int]:
        """The processes mutations are biased toward (the certified timely set)."""
        return list(range(1, self.k + 1))

    #: Config field -> CLI flag, for :meth:`command` (every field a user can
    #: set from ``repro search`` appears here; flags are emitted only when the
    #: value differs from the baseline the command would otherwise imply).
    _CLI_FLAGS = (
        ("generations", "--generations"),
        ("population", "--population"),
        ("horizon", "--horizon"),
        ("checkpoints", "--checkpoints"),
        ("seed", "--seed"),
        ("n", "--n"),
        ("t", "--t"),
        ("k", "--k"),
        ("fitness", "--fitness"),
        ("near_miss_threshold", "--near-miss-threshold"),
        ("certify_bound", "--certify-bound"),
        ("top", "--top"),
    )

    def command(self) -> str:
        """The exact CLI invocation that reproduces this search.

        Emitted as ``--property`` (+ ``--smoke`` when set) plus a flag for
        every field that differs from what that base invocation already
        implies — so the line stays short for common configurations but
        round-trips non-default ``n``/``t``/``k``, thresholds, bounds and
        sizes instead of silently replaying the defaults.
        """
        baseline = (
            SearchConfig.smoke_config(self.property)
            if self.smoke
            else SearchConfig(property=self.property)
        )
        parts = [
            "repro search",
            f"--property {self.property}",
            f"--generations {self.generations}",
            f"--seed {self.seed}",
        ]
        if self.smoke:
            parts.append("--smoke")
        for field_name, flag in self._CLI_FLAGS:
            if field_name in ("seed", "generations"):
                continue
            value = getattr(self, field_name)
            if value is not None and value != getattr(baseline, field_name):
                parts.append(f"{flag} {value}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# Populations
# ----------------------------------------------------------------------

def seed_recipes(config: SearchConfig) -> List[Dict[str, Any]]:
    """The unmutated generation-0 bases the search explores outward from.

    Three benign bases — the certified in-model set-timely scenario, the
    synchronous round-robin schedule, and an eventually synchronous one — and
    two adversarial ones: the carrier-rotation adversary with ``k + 1``
    carriers (the Theorem 26 construction lifted to this ``(n, t, k)``: a
    ``(k+1)``-set is timely but no ``k``-subset is, so degree-``k`` machinery
    has nothing to converge on) and the growing alternating-epochs family
    (every timeliness bound is eventually violated).  Both adversarial bases
    certify *out-of-model*, which is the point: candidates descended from
    them populate the counterexample frontier, never the in-model tally.
    """
    in_model = {
        "schedule": "set-timely",
        "n": config.n,
        "t": config.t,
        "k": config.k,
        "p_set": config.focus_pids(),
        "q_set": list(range(1, config.t + 2)),
        "bound": config.bound,
        "seed": config.seed,
    }
    bases: List[Dict[str, Any]] = [
        in_model,
        {"schedule": "round-robin", "n": config.n},
        {
            "schedule": "eventually-synchronous",
            "n": config.n,
            "chaos_steps": max(16, config.horizon // 8),
            "seed": config.seed,
        },
    ]
    if config.k + 1 <= config.n:
        bases.append(
            {
                "schedule": "carrier-rotation",
                "n": config.n,
                "carriers": list(range(1, config.k + 2)),
            }
        )
    bases.append(
        {
            "schedule": "alternating-epochs",
            "n": config.n,
            "seed": config.seed,
            "sync_epoch": 48,
            "async_epoch": 48,
            "epoch_growth": max(8, config.horizon // 64),
        }
    )
    return [make_recipe(base, config.horizon) for base in bases]


def generation_rng(config: SearchConfig, generation: int) -> random.Random:
    """The deterministic RNG stream of one generation."""
    return random.Random(f"{config.seed}:{config.property}:{generation}")


def generation_recipes(
    config: SearchConfig, generation: int, elites: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """The population of one generation, deterministically derived.

    Generation 0 is the seed bases plus mutated bases; later generations put
    the elites first, verbatim (:func:`run_search` carries their evaluations
    forward instead of running them again), breed mutations of elites, and
    mix in fresh random candidates for diversity.
    """
    rng = generation_rng(config, generation)
    focus = config.focus_pids()
    bases = seed_recipes(config)
    recipes: List[Dict[str, Any]]
    if generation == 0 or not elites:
        recipes = list(bases)
        index = 0
        while len(recipes) < config.population:
            parent = bases[index % len(bases)]
            recipes.append(
                mutate_recipe(parent, rng, config.n, extra=1 + rng.randrange(2), focus_pids=focus)
            )
            index += 1
    else:
        recipes = [dict(elite) for elite in elites[: config.elites]]
        while len(recipes) < config.population:
            if rng.random() < 0.7:
                parent = elites[rng.randrange(len(elites))]
                extra = 1
            else:
                parent = bases[rng.randrange(len(bases))]
                extra = 1 + rng.randrange(3)
            recipes.append(
                mutate_recipe(parent, rng, config.n, extra=extra, focus_pids=focus)
            )
    return recipes[: config.population]


# ----------------------------------------------------------------------
# Candidate accounting
# ----------------------------------------------------------------------

#: Candidates carried into a later generation without a run (``hits``) and
#: candidates a ``search-eval`` run screened (``misses``), counted by the
#: process running the search from the records it got back, whichever
#: process ran them.
_SCREEN_COUNTS = {"hits": 0, "misses": 0}


def screen_cache_stats() -> Dict[str, int]:
    """Cumulative counts of carried (``hits``) and screened (``misses``) candidates."""
    return dict(_SCREEN_COUNTS)


# ----------------------------------------------------------------------
# The campaign kind: evaluate a chunk of recipes
# ----------------------------------------------------------------------

def _finish_evaluation(
    recipe: Mapping[str, Any],
    params: Mapping[str, Any],
    prop: ScheduleProperty,
    compiled: CompiledSchedule,
    screen: PropertyVerdict,
    witness: Optional[SystemWitness],
) -> Dict[str, Any]:
    """Everything after the screen: fitness, confirm + certify when flagged."""
    i, j = prop.certification_sizes()
    fitness = _fitness(screen, witness)
    confirmed: Optional[Dict[str, Any]] = None
    certificate: Optional[Dict[str, Any]] = None
    if _flagged(params, screen, fitness):
        # The screen run flagged this candidate by the same rule, so it
        # attached the exact verdict.
        confirm = screen.exact
        confirmed = {
            "violated": confirm.violated,
            "fitness": confirm.fitness,
            "details": confirm.details,
        }
        certificate = certify_schedule(
            compiled,
            i,
            j,
            certify_bound=int(params["certify_bound"]),
            max_faulty=prop.t,
            prefix_length=_certify_prefix(params),
            witness=witness,
        ).to_payload()
    return {
        "recipe": dict(recipe),
        "signature": recipe_signature(recipe),
        "description": describe_recipe(recipe),
        "length": len(compiled),
        "faulty": sorted(compiled.faulty),
        "fitness": fitness,
        "screen_violated": screen.violated,
        "screen_details": screen.details,
        "confirmed": confirmed,
        "certificate": certificate,
    }


def _certify_prefix(params: Mapping[str, Any]) -> Optional[int]:
    prefix = params.get("certify_prefix")
    return None if prefix is None else int(prefix)


def _fitness(screen: PropertyVerdict, witness: Optional[SystemWitness]) -> float:
    """The searched fitness: the witness's evidence ratio, else the screen's."""
    if witness is not None:
        return round(witness.witness.evidence_ratio(), 6)
    return screen.fitness


def _flagged(params: Mapping[str, Any], screen: PropertyVerdict, fitness: float) -> bool:
    """Whether a candidate needs its exact verdict and a certificate."""
    return screen.violated or fitness >= float(params["near_miss_threshold"])


def run_search_eval_kind(params: Dict[str, Any]) -> Dict[str, Any]:
    """Campaign kind ``search-eval``: evaluate one chunk of candidate recipes.

    The whole chunk screens in one :func:`~repro.search.properties.screen_generation`
    call, so identical candidates share their steps through its sorted-prefix
    plan; a flagged candidate's exact verdict comes from its screen run.
    Deterministic in its parameters, which is what makes search generations
    content-addressable campaign runs: re-running a search with a result
    cache replays cached generations instead of re-simulating them.
    """
    prop = make_property(str(params["property"]), params["property_params"])
    recipes = list(params["recipes"])
    compileds = [realize(recipe) for recipe in recipes]
    witnesses: List[Optional[SystemWitness]] = [None] * len(compileds)
    if params.get("fitness") == "timeliness-bound":
        i, j = prop.certification_sizes()
        witnesses = [
            best_witness(compiled, i, j, _certify_prefix(params)) for compiled in compileds
        ]
    screens = screen_generation(
        prop,
        compileds,
        int(params["checkpoints"]),
        lambda index, screen: _flagged(params, screen, _fitness(screen, witnesses[index])),
    )
    return {
        "results": [
            _finish_evaluation(recipe, params, prop, compiled, screen, witness)
            for recipe, compiled, screen, witness in zip(
                recipes, compileds, screens, witnesses
            )
        ]
    }


register_kind("search-eval", run_search_eval_kind)


# ----------------------------------------------------------------------
# Search report structures
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluatedCandidate:
    """One candidate's full evaluation record, as the engine keeps it."""

    generation: int
    recipe: Dict[str, Any]
    signature: str
    description: str
    length: int
    faulty: Tuple[int, ...]
    fitness: float
    screen_violated: bool
    screen_details: Dict[str, Any]
    confirmed_violated: Optional[bool]
    confirmed_details: Optional[Dict[str, Any]]
    certificate: Optional[Dict[str, Any]]

    @property
    def in_model(self) -> Optional[bool]:
        """Certification verdict, when the candidate was certified."""
        if self.certificate is None:
            return None
        return bool(self.certificate["in_model"])

    def classification(self) -> str:
        """How this candidate counts in the falsification tally."""
        if self.confirmed_violated:
            return IN_MODEL_VIOLATION if self.in_model else OUT_OF_MODEL_VIOLATION
        return NEAR_MISS


@dataclass(frozen=True)
class GenerationStats:
    """Per-generation accounting for the report table."""

    generation: int
    candidates: int
    best_fitness: float
    mean_fitness: float
    screen_violations: int
    confirmed_violations: int
    in_model_violations: int
    out_of_model_violations: int
    near_misses: int
    cached_runs: int
    elapsed: float


@dataclass(frozen=True)
class ShrunkFinding:
    """One finding after minimization: the atlas entry."""

    kind: str
    generation: int
    recipe: Dict[str, Any]
    description: str
    original_length: int
    shrunk_length: int
    evaluations: int
    removed_crashes: int
    schedule: CompiledSchedule
    certificate: CertificationReport
    confirm_details: Dict[str, Any]
    fitness: float


def _distinct(pool: List[EvaluatedCandidate]) -> List[EvaluatedCandidate]:
    """First occurrence per content signature — elites recur every generation
    they survive, and one schedule is one finding."""
    seen: set = set()
    unique: List[EvaluatedCandidate] = []
    for candidate in pool:
        if candidate.signature not in seen:
            seen.add(candidate.signature)
            unique.append(candidate)
    return unique


@dataclass
class SearchReport:
    """Everything one :func:`run_search` invocation established."""

    config: SearchConfig
    generations: List[GenerationStats] = field(default_factory=list)
    candidates: List[EvaluatedCandidate] = field(default_factory=list)
    findings: List[ShrunkFinding] = field(default_factory=list)
    elapsed: float = 0.0

    # ------------------------------------------------------------------
    def candidates_evaluated(self) -> int:
        """Total candidate evaluations across all generations.

        Counts evaluations, not distinct schedules: an elite carried into a
        later generation counts again there (its evaluation is carried, not
        re-run).  The finding accessors below dedup by content signature
        instead.
        """
        return len(self.candidates)

    def violations(self, in_model: bool) -> List[EvaluatedCandidate]:
        """Distinct confirmed violations, split by certification verdict."""
        wanted = IN_MODEL_VIOLATION if in_model else OUT_OF_MODEL_VIOLATION
        return _distinct(
            [
                candidate
                for candidate in self.candidates
                if candidate.confirmed_violated and candidate.classification() == wanted
            ]
        )

    def in_model_violation_count(self) -> int:
        """The headline number — expected to be 0 while the paper stands."""
        return len(self.violations(in_model=True))

    def near_misses(self) -> List[EvaluatedCandidate]:
        """Distinct non-violating candidates at or above the near-miss threshold."""
        return _distinct(
            [
                candidate
                for candidate in self.candidates
                if not candidate.confirmed_violated
                and candidate.fitness >= self.config.near_miss_threshold
            ]
        )

    def best_fitness(self) -> float:
        """The highest fitness any candidate reached."""
        return max((candidate.fitness for candidate in self.candidates), default=0.0)

    def summary(self) -> str:
        """One-line outcome for logs and tables."""
        return (
            f"search[{self.config.property}]: {self.candidates_evaluated()} candidates "
            f"over {len(self.generations)} generation(s), "
            f"{self.in_model_violation_count()} in-model violation(s), "
            f"{len(self.violations(in_model=False))} out-of-model, "
            f"{len(self.near_misses())} near-miss(es), "
            f"{len(self.findings)} shrunk finding(s), {self.elapsed:.2f}s"
        )


# ----------------------------------------------------------------------
# The search loop
# ----------------------------------------------------------------------

def _eval_params(config: SearchConfig, recipes: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "property": config.property,
        "property_params": config.property_params(),
        "fitness": config.fitness,
        "checkpoints": config.checkpoints,
        "near_miss_threshold": config.near_miss_threshold,
        "certify_bound": config.resolved_certify_bound(),
        "certify_prefix": config.certify_prefix,
        "recipes": recipes,
    }


def generation_spec(
    config: SearchConfig, generation: int, recipes: List[Dict[str, Any]], workers: int = 1
) -> CampaignSpec:
    """One generation as a campaign spec: contiguous ``search-eval`` runs in recipe order.

    With ``eval_chunk`` unset the recipes split into ``workers`` runs of
    ``ceil(len(recipes) / workers)``: every worker gets one run, and an
    inline engine screens the whole generation in one
    :func:`~repro.search.properties.screen_generation` call, whose
    sorted-prefix plan then shares step prefixes across all of it.  An
    explicit ``eval_chunk`` fixes the run size instead.  The single assembly
    point for how a population becomes campaign runs — the engine executes
    these specs, and perfbench's search workloads time exactly this shape.
    """
    size = config.eval_chunk or max(1, -(-len(recipes) // workers))
    chunks = [recipes[start : start + size] for start in range(0, len(recipes), size)]
    return CampaignSpec(
        name=f"search-{config.property}-g{generation}",
        kind="search-eval",
        runs=[_eval_params(config, chunk) for chunk in chunks],
    )


def _evaluate_generation(
    config: SearchConfig,
    generation: int,
    recipes: List[Dict[str, Any]],
    engine: CampaignEngine,
) -> Tuple[List[EvaluatedCandidate], int]:
    """One generation through the campaign layer; returns (candidates, cached runs)."""
    if not recipes:
        return [], 0
    result = engine.run(generation_spec(config, generation, recipes, engine.workers))
    candidates: List[EvaluatedCandidate] = []
    cached = 0
    for record in result.records:
        if record.cached:
            cached += 1
        else:
            _SCREEN_COUNTS["misses"] += len(record.payload["results"])
        for payload in record.payload["results"]:
            confirmed = payload.get("confirmed")
            candidates.append(
                EvaluatedCandidate(
                    generation=generation,
                    recipe=payload["recipe"],
                    signature=payload["signature"],
                    description=payload["description"],
                    length=payload["length"],
                    faulty=tuple(payload["faulty"]),
                    fitness=float(payload["fitness"]),
                    screen_violated=bool(payload["screen_violated"]),
                    screen_details=payload.get("screen_details") or {},
                    confirmed_violated=(
                        bool(confirmed["violated"]) if confirmed is not None else None
                    ),
                    confirmed_details=(
                        confirmed.get("details") if confirmed is not None else None
                    ),
                    certificate=payload.get("certificate"),
                )
            )
    return candidates, cached


def _select_elites(
    config: SearchConfig, candidates: List[EvaluatedCandidate]
) -> List[EvaluatedCandidate]:
    """The candidates carried into the next generation (fitness-sorted, stable ties)."""
    ranked = sorted(candidates, key=lambda c: (-c.fitness, c.signature))
    return _distinct(ranked)[: config.elites]


def _content_digest(compiled: CompiledSchedule) -> str:
    """Digest of a candidate's content: its step buffer and crash metadata."""
    digest = hashlib.sha1(compiled.steps.tobytes())
    digest.update(repr(sorted(compiled.crash_steps.items())).encode())
    return digest.hexdigest()


def _shrink_findings(
    config: SearchConfig, candidates: List[EvaluatedCandidate]
) -> List[ShrunkFinding]:
    """Minimize the surviving findings and re-certify the minimal reproducers.

    Every shrink predicate preserves *both* the finding and its certification
    side: a shrunk candidate must still fail (or still clear the near-miss
    threshold with every correct process producing output) **and** must stay
    on the same side of the model boundary as the original finding.  Without
    the second clause, delta debugging happily collapses an out-of-model
    near-miss into a trivially in-model startup fragment — technically above
    threshold, scientifically worthless.  A ranked candidate whose unshrunk
    schedule fails its own predicate (a near-miss above threshold with a
    correct process that never produced output) is no finding to shrink: the
    next ranked candidate takes its place.
    """
    from .shrink import shrink_schedule

    prop = make_property(config.property, config.property_params())
    i, j = prop.certification_sizes()

    violations = _distinct(
        sorted(
            [c for c in candidates if c.confirmed_violated],
            key=lambda c: (-c.fitness, c.signature),
        )
    )
    ranked: List[Tuple[str, EvaluatedCandidate]] = [
        (
            IN_MODEL_VIOLATION if candidate.in_model else OUT_OF_MODEL_VIOLATION,
            candidate,
        )
        for candidate in violations
    ]
    wanted = max(config.top, 1)
    if not ranked:
        # Out-of-model near-misses first — they are the atlas's raison d'être —
        # then by fitness; ties break on the content signature for determinism.
        near = _distinct(
            sorted(
                [
                    c
                    for c in candidates
                    if not c.confirmed_violated
                    and c.fitness >= config.near_miss_threshold
                    and c.certificate is not None
                ],
                key=lambda c: (c.in_model is not False, -c.fitness, c.signature),
            )
        )
        ranked = [(NEAR_MISS, candidate) for candidate in near]
        wanted = config.top

    def same_side(trial: CompiledSchedule, target_in_model: Optional[bool]) -> bool:
        if target_in_model is None:
            return True
        verdict = certify_schedule(
            trial,
            i,
            j,
            certify_bound=config.resolved_certify_bound(),
            max_faulty=prop.t,
            prefix_length=config.certify_prefix,
        )
        return verdict.in_model == target_in_model

    findings: List[ShrunkFinding] = []
    memos: Dict[Tuple[str, Optional[bool]], Dict[str, bool]] = {}
    for kind, candidate in ranked:
        if len(findings) >= wanted:
            break
        compiled = realize(candidate.recipe)
        target_side = candidate.in_model

        if kind == NEAR_MISS and config.fitness == "timeliness-bound":
            def still_finding(trial: CompiledSchedule) -> bool:
                return (
                    timeliness_fitness(trial, i, j, config.certify_prefix)
                    >= config.near_miss_threshold
                )
        elif kind == NEAR_MISS:
            def still_finding(trial: CompiledSchedule) -> bool:
                verdict = prop.screen(trial, config.checkpoints)
                return (
                    verdict.fitness >= config.near_miss_threshold
                    and bool(verdict.details.get("all_correct_produced", True))
                )
        else:
            def still_finding(trial: CompiledSchedule) -> bool:
                return prop.confirm(trial).violated

        # Within one (kind, side) the predicate reads only the trial's content,
        # so findings whose shrinks meet the same trial replay it once.
        memo = memos.setdefault((kind, target_side), {})

        def predicate(trial: CompiledSchedule) -> bool:
            key = _content_digest(trial)
            held = memo.get(key)
            if held is None:
                held = memo[key] = still_finding(trial) and same_side(trial, target_side)
            return held

        # shrink_schedule's own first check of this input is then a memo hit.
        if not predicate(compiled):
            continue
        result = shrink_schedule(
            compiled, predicate, max_evaluations=config.shrink_max_evaluations
        )
        shrunk = result.schedule
        certificate = certify_schedule(
            shrunk,
            i,
            j,
            certify_bound=config.resolved_certify_bound(),
            max_faulty=prop.t,
            prefix_length=config.certify_prefix,
        )
        confirm = prop.confirm(shrunk)
        findings.append(
            ShrunkFinding(
                kind=kind,
                generation=candidate.generation,
                recipe=candidate.recipe,
                description=candidate.description,
                original_length=result.original_length,
                shrunk_length=result.shrunk_length,
                evaluations=result.evaluations,
                removed_crashes=result.removed_crashes,
                schedule=shrunk,
                certificate=certificate,
                confirm_details=dict(confirm.details),
                fitness=candidate.fitness,
            )
        )
    return findings


def run_search(
    config: SearchConfig,
    engine: Optional[CampaignEngine] = None,
    jsonl_path: Optional[Union[str, Path]] = None,
) -> SearchReport:
    """Run one falsify → shrink → certify search and return its report.

    ``engine`` defaults to an inline single-worker
    :class:`~repro.campaign.engine.CampaignEngine`; pass a pooled/cached one
    to parallelize generations and resume searches.  The previous
    generation's elites are carried forward, stamped with the new generation,
    so each generation dispatches only its fresh recipes.  ``jsonl_path``
    streams one JSON record per evaluated candidate plus one per shrunk
    finding.
    """
    started = time.perf_counter()
    own_engine = engine is None
    active = engine if engine is not None else CampaignEngine()
    report = SearchReport(config=config)
    try:
        elites: List[EvaluatedCandidate] = []
        for generation in range(config.generations):
            generation_started = time.perf_counter()
            recipes = generation_recipes(config, generation, [e.recipe for e in elites])
            carried = [replace(e, generation=generation) for e in elites]
            _SCREEN_COUNTS["hits"] += len(carried)
            fresh, cached = _evaluate_generation(
                config, generation, recipes[len(carried) :], active
            )
            candidates = carried + fresh
            report.candidates.extend(candidates)
            fitnesses = [candidate.fitness for candidate in candidates]
            confirmed = [c for c in candidates if c.confirmed_violated]
            report.generations.append(
                GenerationStats(
                    generation=generation,
                    candidates=len(candidates),
                    best_fitness=max(fitnesses, default=0.0),
                    mean_fitness=round(sum(fitnesses) / max(len(fitnesses), 1), 6),
                    screen_violations=sum(1 for c in candidates if c.screen_violated),
                    confirmed_violations=len(confirmed),
                    in_model_violations=sum(1 for c in confirmed if c.in_model),
                    out_of_model_violations=sum(
                        1 for c in confirmed if c.in_model is False
                    ),
                    near_misses=sum(
                        1
                        for c in candidates
                        if not c.confirmed_violated
                        and c.fitness >= config.near_miss_threshold
                    ),
                    cached_runs=cached,
                    elapsed=time.perf_counter() - generation_started,
                )
            )
            elites = _select_elites(config, candidates)
        report.findings = _shrink_findings(config, report.candidates)
    finally:
        if own_engine:
            active.close()
    report.elapsed = time.perf_counter() - started
    if jsonl_path is not None:
        write_search_jsonl(report, jsonl_path)
    return report


# ----------------------------------------------------------------------
# Rendering and records
# ----------------------------------------------------------------------

def render_step_table(compiled: CompiledSchedule, max_rows: int = 24) -> str:
    """Render a (shrunk) schedule as a run-length step table.

    Consecutive equal steps collapse into one row (``steps a–b: process p``),
    which is how the counterexample atlas prints minimal reproducers.
    """
    from ..analysis.reporting import ascii_table

    rows: List[List[Any]] = []
    steps = list(compiled.steps)
    index = 0
    while index < len(steps) and len(rows) < max_rows:
        pid = steps[index]
        end = index
        while end + 1 < len(steps) and steps[end + 1] == pid:
            end += 1
        span = str(index) if end == index else f"{index}–{end}"
        rows.append([span, pid, end - index + 1])
        index = end + 1
    if index < len(steps):
        rows.append([f"{index}–{len(steps) - 1}", "…", len(steps) - index])
    crashes = (
        ", ".join(f"{pid}@{step}" for pid, step in sorted(compiled.crash_steps.items()))
        or "none"
    )
    table = ascii_table(["steps", "process", "count"], rows, title=compiled.describe())
    return f"{table}\ncrashes: {crashes}"


def search_report_lines(report: SearchReport) -> List[str]:
    """The CLI rendering of a search report (tables + atlas entries)."""
    from ..analysis.reporting import ascii_table

    config = report.config
    lines = [
        f"property:  {make_property(config.property, config.property_params()).describe()}",
        f"fitness:   {config.fitness} (near-miss threshold {config.near_miss_threshold})",
        f"certify:   S^{config.k}_{{{config.t + 1},{config.n}}} with bound <= "
        f"{report.config.resolved_certify_bound()}, crashes <= {config.t}",
        ascii_table(
            [
                "generation",
                "candidates",
                "best fitness",
                "mean fitness",
                "screen flags",
                "confirmed",
                "in-model",
                "out-of-model",
                "near misses",
                "cached runs",
            ],
            [
                [
                    stats.generation,
                    stats.candidates,
                    stats.best_fitness,
                    stats.mean_fitness,
                    stats.screen_violations,
                    stats.confirmed_violations,
                    stats.in_model_violations,
                    stats.out_of_model_violations,
                    stats.near_misses,
                    stats.cached_runs,
                ]
                for stats in report.generations
            ],
            title=f"falsification attempts against {config.property}",
        ),
        report.summary(),
        f"in-model violations: {report.in_model_violation_count()} (expected: 0)",
    ]
    for index, finding in enumerate(report.findings, start=1):
        lines.append("")
        lines.append(
            f"finding {index} [{finding.kind}]: {finding.description} — "
            f"shrunk {finding.original_length} -> {finding.shrunk_length} steps"
        )
        lines.append(f"  certification: {finding.certificate.reason}")
        lines.append(render_step_table(finding.schedule))
        lines.append(f"  regenerate: {config.command()}")
    return lines


def write_search_jsonl(report: SearchReport, path: Union[str, Path]) -> None:
    """Stream the report as JSON-lines: one record per candidate and finding."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        for candidate in report.candidates:
            handle.write(
                json.dumps(
                    {
                        "record": "candidate",
                        "generation": candidate.generation,
                        "recipe": candidate.recipe,
                        "description": candidate.description,
                        "fitness": candidate.fitness,
                        "screen_violated": candidate.screen_violated,
                        "confirmed_violated": candidate.confirmed_violated,
                        "in_model": candidate.in_model,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        for finding in report.findings:
            handle.write(
                json.dumps(
                    {
                        "record": "finding",
                        "kind": finding.kind,
                        "recipe": finding.recipe,
                        "original_length": finding.original_length,
                        "shrunk_length": finding.shrunk_length,
                        "steps": list(finding.schedule.steps),
                        "crash_steps": {
                            str(pid): step
                            for pid, step in sorted(finding.schedule.crash_steps.items())
                        },
                        "certificate": finding.certificate.to_payload(),
                        "regenerate": report.config.command(),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
