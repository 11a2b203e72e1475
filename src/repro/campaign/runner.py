"""Execution of one campaign run: the experiment-kind registry.

A *kind* maps a JSON-normalized parameter dict to a JSON-normalized payload
dict.  Kinds must be deterministic functions of their parameters — that is
what makes content-addressed caching sound — and must only produce plain JSON
values, so results round-trip unchanged through the cache, worker processes
and JSON-lines files.

Built-in kinds:

``detector``
    Run the Figure 2 k-anti-Ω detector alone on a schedule family and measure
    stabilization (:func:`repro.analysis.metrics.run_detector_experiment`,
    through the simulator's fast path).
``separation-probe``
    A ``detector`` run plus a count of timely sets of a given size on a finite
    prefix — the E4 separation measurement.
``agreement``
    Solve one (t, k, n)-agreement instance end to end (E3).
``figure1``
    Observed timeliness bounds on a Figure 1 schedule prefix (E1; pure
    analysis, no simulator).

Schedule families are part of the run parameters (``schedule`` selects the
generator; the remaining schedule parameters configure it), so a campaign can
sweep schedule families exactly like it sweeps numeric axes.

Simulator-backed kinds get two layers of hot-loop acceleration for free: the
compiled-schedule memo below (one generator-chain materialization per
scenario, flat-buffer replays per replica) and operation pre-binding (the
simulators they build invoke every automaton's
:meth:`~repro.runtime.automaton.ProcessAutomaton.prebind` hook, so detector
and agreement steps dispatch slot-bound ops against the register arena).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..core.schedule import CompiledSchedule
from ..errors import ConfigurationError
from ..failure_detectors.anti_omega import (
    constant_timeout_policy,
    doubling_timeout_policy,
    max_accusation_statistic,
    median_accusation_statistic,
    min_accusation_statistic,
    paper_accusation_statistic,
    paper_timeout_policy,
)
from ..memo import LRUMemo
from ..scenarios.spec import build_generator
from .spec import RunSpec, canonical_json

#: A kind is a pure function params -> payload (both JSON-normalized dicts).
KindFunction = Callable[[Dict[str, Any]], Dict[str, Any]]

_KINDS: Dict[str, KindFunction] = {}

ACCUSATION_STATISTICS = {
    "paper": paper_accusation_statistic,
    "min": min_accusation_statistic,
    "max": max_accusation_statistic,
    "median": median_accusation_statistic,
}

TIMEOUT_POLICIES = {
    "paper": paper_timeout_policy,
    "doubling": doubling_timeout_policy,
    "constant": constant_timeout_policy,
}


def register_kind(name: str, function: KindFunction) -> None:
    """Register (or replace) an experiment kind."""
    _KINDS[name] = function


def available_kinds() -> List[str]:
    """Names of all registered kinds, sorted."""
    return sorted(_KINDS)


#: Kinds registered by optional subsystems on import: when a worker process
#: (or a fresh interpreter replaying a JSON-lines record) sees one of these
#: before the owning module was imported, the kind function is resolved on
#: demand from ``module:attribute`` and registered.
_LAZY_KINDS = {
    "search-eval": ("repro.search.engine", "run_search_eval_kind"),
    "dist-timeliness": ("repro.distsim.reduction", "run_dist_timeliness_kind"),
}


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Execute one run and return its payload (the worker-side entry point)."""
    function = _KINDS.get(spec.kind)
    if function is None and spec.kind in _LAZY_KINDS:
        import importlib

        module_name, attribute = _LAZY_KINDS[spec.kind]
        function = getattr(importlib.import_module(module_name), attribute)
        register_kind(spec.kind, function)
    if function is None:
        raise ConfigurationError(
            f"unknown experiment kind {spec.kind!r}; registered: {available_kinds()}"
        )
    return function(spec.param_dict())


# ----------------------------------------------------------------------
# Schedule construction from JSON parameters
# ----------------------------------------------------------------------
#
# Delegated wholesale to the scenario layer: ``params["schedule"]`` selects a
# registered scenario family (classic generators and the new scenario
# families alike), ``params["perturbations"]`` optionally wraps it.  The name
# is re-exported here because run kinds — and external campaign definitions —
# have always imported it from this module.

__all__ = [
    "build_generator",
    "register_kind",
    "available_kinds",
    "execute_spec",
    "schedule_signature",
    "compiled_schedule_for",
]


# ----------------------------------------------------------------------
# Compiled schedules: compile once per scenario, replay per replica
# ----------------------------------------------------------------------
#
# Campaign runs are embarrassingly replica-parallel: many runs share one
# (schedule family, schedule parameters) scenario and differ only in the
# measurement configuration (t, k, statistic, ...).  Re-running the Python
# generator chain per step for every replica is pure interpreter overhead, so
# each worker process keeps a small content-addressed memo of
# :class:`~repro.core.schedule.CompiledSchedule` buffers keyed by the
# *schedule identity* of the run's parameters plus the compile horizon.  The
# engine groups same-scenario replicas into the same worker chunk
# (:meth:`~repro.campaign.engine.CampaignEngine`), so the memo turns a
# per-replica generator chain into a single compile followed by flat-buffer
# replays.

#: Parameter keys that configure the measurement, never the schedule stream.
#: Everything else — including keys a family builder ignores — is part of the
#: schedule identity, which can only merge runs that truly share a scenario.
_EXPERIMENT_KEYS = frozenset(
    {
        "t",
        "k",
        "horizon",
        "statistic",
        "policy",
        "prefix_length",
        "count_size",
        "count_bound",
    }
)

#: Worker-local compiled-schedule memo (LRU, content-addressed).  Detector
#: runs share it across replicas, and :func:`repro.search.mutations.realize`
#: shares it across every recipe of one base, so a search compiles each base
#: once per process.  Entries are read-only: mutated recipes copy the steps.
_COMPILED_MEMO: "LRUMemo[Tuple[str, int], CompiledSchedule]" = LRUMemo(16)


def schedule_signature(params: Mapping[str, Any]) -> str:
    """Canonical identity of the schedule stream selected by ``params``.

    Two runs with equal signatures are driven by byte-identical schedules, so
    they may share one compiled buffer.  The signature is the canonical JSON
    of the parameters with the pure-measurement keys stripped.
    """
    return canonical_json(
        {key: value for key, value in params.items() if key not in _EXPERIMENT_KEYS}
    )


def compiled_schedule_for(params: Mapping[str, Any], horizon: int) -> CompiledSchedule:
    """The memoized compiled buffer for ``params``' scenario at ``horizon`` steps."""
    key = (schedule_signature(params), int(horizon))
    compiled = _COMPILED_MEMO.get(key)
    if compiled is None:
        compiled = build_generator(params).compile(int(horizon))
        _COMPILED_MEMO.put(key, compiled)
    return compiled


# ----------------------------------------------------------------------
# Built-in kinds
# ----------------------------------------------------------------------

def _detector_report(params: Dict[str, Any]):
    from ..analysis.metrics import run_detector_experiment

    statistic = ACCUSATION_STATISTICS.get(params.get("statistic", "paper"))
    policy = TIMEOUT_POLICIES.get(params.get("policy", "paper"))
    if statistic is None or policy is None:
        raise ConfigurationError(
            f"unknown statistic/policy: {params.get('statistic')!r}/{params.get('policy')!r}"
        )
    generator = build_generator(params)
    horizon = int(params["horizon"])
    if horizon < 1:
        # Checked before compiling, which would reject a negative horizon in
        # its own words ("compile length ...").
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    compiled = compiled_schedule_for(params, horizon)
    report = run_detector_experiment(
        generator,
        t=int(params["t"]),
        k=int(params["k"]),
        horizon=horizon,
        accusation_statistic=statistic,
        timeout_policy=policy,
        fast=True,
        schedule=compiled,
    )
    return compiled, report


def _detector_payload(report) -> Dict[str, Any]:
    return {
        "satisfied": report.satisfied,
        "stabilization_step": report.stabilization_step,
        "margin": report.margin,
        "winner_changes": report.winner_changes,
        "last_winner_change": report.last_winner_change,
        "winner_set": list(report.converged_winner_set)
        if report.converged_winner_set is not None
        else None,
        "winner_contains_correct": report.winner_contains_correct,
        "stabilized_early": report.stabilized_early,
        "schedule_description": report.schedule_description,
    }


def run_detector_kind(params: Dict[str, Any]) -> Dict[str, Any]:
    """Kind ``detector``: run k-anti-Ω on the scenario and report stabilization."""
    _, report = _detector_report(params)
    return _detector_payload(report)


def run_separation_probe_kind(params: Dict[str, Any]) -> Dict[str, Any]:
    """Kind ``separation-probe``: a ``detector`` payload plus ``timely_count``.

    ``timely_count`` is the number of ``count_size`` sets timely with bound
    ``count_bound`` on the first ``prefix_length`` steps.
    """
    from ..analysis.timeliness_matrix import timely_sets_of_size

    compiled, report = _detector_report(params)
    payload = _detector_payload(report)
    prefix_length = int(params.get("prefix_length", 20_000))
    count_size = int(params.get("count_size", params["k"]))
    count_bound = int(params.get("count_bound", 8))
    length = min(int(params["horizon"]), prefix_length)
    # The compiled buffer is the same step stream the generator would emit,
    # so the probe prefix can be sliced out instead of regenerated.
    prefix = compiled.prefix(length)
    payload["timely_count"] = len(timely_sets_of_size(prefix, count_size, bound=count_bound))
    return payload


def run_agreement_kind(params: Dict[str, Any]) -> Dict[str, Any]:
    """Kind ``agreement``: solve one (t, k, n)-agreement instance within ``horizon`` steps."""
    from ..agreement.problem import distinct_inputs
    from ..agreement.runner import solve_agreement
    from ..core.solvability import matching_system
    from ..types import AgreementInstance

    n, t, k = int(params["n"]), int(params["t"]), int(params["k"])
    horizon = int(params["horizon"])
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    problem = AgreementInstance(t=t, k=k, n=n)
    generator = build_generator(params)
    report = solve_agreement(
        problem=problem,
        inputs=distinct_inputs(n),
        schedule=generator,
        max_steps=horizon,
    )
    return {
        "problem": problem.describe(),
        "system": matching_system(problem).describe(),
        "protocol": "trivial" if k > t else "anti-Ω + k instances",
        "all_correct_decided": report.all_correct_decided,
        "distinct_decisions": len(report.verdict.distinct_decisions),
        "valid": report.verdict.valid,
        "max_decision_step": report.max_decision_step(),
        "steps_executed": report.steps_executed,
    }


def run_figure1_kind(params: Dict[str, Any]) -> Dict[str, Any]:
    """Kind ``figure1``: observed bounds of ``{1}``, ``{2}`` and ``{1,2}`` w.r.t. ``{3}``."""
    from ..core.timeliness import analyze_timeliness
    from ..schedules.figure1 import Figure1Generator

    generator = Figure1Generator()
    blocks = int(params["blocks"])
    schedule = generator.generate(generator.steps_for_blocks(blocks))
    return {
        "steps": len(schedule),
        "bound_p1": analyze_timeliness(schedule, {1}, {3}).minimal_bound,
        "bound_p2": analyze_timeliness(schedule, {2}, {3}).minimal_bound,
        "bound_set": analyze_timeliness(schedule, {1, 2}, {3}).minimal_bound,
    }


register_kind("detector", run_detector_kind)
register_kind("separation-probe", run_separation_probe_kind)
register_kind("agreement", run_agreement_kind)
register_kind("figure1", run_figure1_kind)
