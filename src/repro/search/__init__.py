"""Adversarial schedule search: actively try to falsify the paper's claims.

Everything else in the library *replays* schedules — hand-built, family-
sampled, or certified by construction.  This package *searches* schedule
space: guided random + mutation exploration over compiled step buffers
(**falsify**), delta-debugging minimization of anything that survives
(**shrink**), and re-validation against the ``S^k_{t+1,n}`` membership
machinery so a property failure is always explicitly in-model or out-of-model
(**certify**).  The expected steady state — 0 in-model violations, a
reproducible out-of-model counterexample frontier — is what turns the
reproduction into a testable theory; see ``docs/GUIDE.md`` for the narrative
walkthrough and ``docs/COUNTEREXAMPLES.md`` for the atlas of shrunk findings.

Entry points: :func:`~repro.search.engine.run_search` (library),
``repro search`` (CLI), and the E11 experiment in
:mod:`repro.analysis.experiment`.
"""

from .certify import CertificationReport, best_witness, certify_schedule, timeliness_fitness
from .engine import (
    FITNESS_MODES,
    IN_MODEL_VIOLATION,
    NEAR_MISS,
    OUT_OF_MODEL_VIOLATION,
    EvaluatedCandidate,
    GenerationStats,
    SearchConfig,
    SearchReport,
    ShrunkFinding,
    generation_recipes,
    generation_spec,
    render_step_table,
    run_search,
    search_report_lines,
    seed_recipes,
    write_search_jsonl,
)
from .mutations import (
    MUTATION_OPS,
    apply_mutation,
    describe_recipe,
    make_recipe,
    mutate_recipe,
    realize,
    recipe_signature,
    sample_mutation,
)
from .properties import (
    AgreementSafetyProperty,
    KAntiOmegaConvergenceProperty,
    LeaderSetConvergenceProperty,
    PropertyVerdict,
    ScheduleProperty,
    available_properties,
    make_property,
    property_descriptions,
    tracker_snapshots,
)
from .shrink import ShrinkResult, rebuild_candidate, shrink_schedule

__all__ = [
    "AgreementSafetyProperty",
    "CertificationReport",
    "EvaluatedCandidate",
    "FITNESS_MODES",
    "GenerationStats",
    "IN_MODEL_VIOLATION",
    "KAntiOmegaConvergenceProperty",
    "LeaderSetConvergenceProperty",
    "MUTATION_OPS",
    "NEAR_MISS",
    "OUT_OF_MODEL_VIOLATION",
    "PropertyVerdict",
    "ScheduleProperty",
    "SearchConfig",
    "SearchReport",
    "ShrinkResult",
    "ShrunkFinding",
    "apply_mutation",
    "available_properties",
    "best_witness",
    "certify_schedule",
    "describe_recipe",
    "generation_recipes",
    "generation_spec",
    "make_property",
    "make_recipe",
    "mutate_recipe",
    "property_descriptions",
    "realize",
    "rebuild_candidate",
    "recipe_signature",
    "render_step_table",
    "run_search",
    "sample_mutation",
    "search_report_lines",
    "seed_recipes",
    "shrink_schedule",
    "timeliness_fitness",
    "tracker_snapshots",
    "write_search_jsonl",
]
