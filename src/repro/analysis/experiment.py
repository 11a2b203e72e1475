"""Experiment harness: one function per paper artifact (E1–E11, A1–A3).

Every function returns ``(headers, rows)`` ready for
:func:`repro.analysis.reporting.ascii_table`.  The benchmarks and the CLI call
these functions and print the tables; the numbers recorded in EXPERIMENTS.md
come from exactly these code paths, so the document can always be regenerated.

Since the campaign engine landed, every *run-based* experiment (E1–E4, E10,
A1, A2, and the schedule/scenario-family comparisons) is a thin adapter: it builds a
declarative :class:`~repro.campaign.spec.CampaignSpec`, executes it through a
:class:`~repro.campaign.engine.CampaignEngine` (serial by default — pass
``engine=CampaignEngine(workers=4, cache=...)`` to parallelize and cache), and
shapes the per-run records into the paper's table.  The solvability-oracle
artifacts (E5) stay direct calls: they execute no schedules, only the
Theorem 27 decision procedure.

Default parameters are sized to finish in seconds on a laptop; callers can
scale them up for higher-confidence runs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..campaign.engine import CampaignEngine, CampaignResult
from ..campaign.spec import CampaignSpec
from ..core.solvability import classify, matching_system, separations, solvability_grid
from ..errors import ConfigurationError
from ..types import AgreementInstance

Rows = Tuple[List[str], List[List[Any]]]

#: Display labels for the ablation axes (the campaign parameters use the
#: registry names from :mod:`repro.campaign.runner`).
STATISTIC_LABELS = {
    "paper": "paper (t+1)-st smallest",
    "min": "min",
    "max": "max",
    "median": "median",
}
POLICY_LABELS = {
    "paper": "paper (+1)",
    "doubling": "doubling",
    "constant": "constant",
}


def _engine(engine: Optional[CampaignEngine]) -> CampaignEngine:
    return engine if engine is not None else CampaignEngine()


def _winner_set(payload: Dict[str, Any]) -> Optional[tuple]:
    winner = payload.get("winner_set")
    return tuple(winner) if winner is not None else None


def _first_k_correct(n: int, k: int, crashes: Iterable[int]) -> frozenset:
    crashed = frozenset(crashes)
    chosen: List[int] = []
    for pid in range(1, n + 1):
        if pid not in crashed:
            chosen.append(pid)
        if len(chosen) == k:
            break
    return frozenset(chosen)


def _first_m_processes(n: int, m: int) -> frozenset:
    return frozenset(range(1, min(m, n) + 1))


# ----------------------------------------------------------------------
# E1 — Figure 1: set timeliness vs. individual timeliness
# ----------------------------------------------------------------------

def figure1_campaign_spec(blocks: Sequence[int] = (2, 4, 8, 16)) -> CampaignSpec:
    """The E1 prefix sweep as a declarative campaign."""
    return CampaignSpec(
        name="figure1",
        kind="figure1",
        runs=[{"blocks": block_count} for block_count in blocks],
    )


def figure1_experiment(
    blocks: Sequence[int] = (2, 4, 8, 16),
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """Observed timeliness bounds on growing prefixes of the Figure 1 schedule.

    The paper's claim: neither ``p1`` nor ``p2`` is timely with respect to
    ``q`` (their observed bounds grow with the prefix), but the set
    ``{p1, p2}`` is timely with bound 2 (constant).
    """
    spec = figure1_campaign_spec(blocks=blocks)
    result = _engine(engine).run(spec)
    headers = ["blocks", "steps", "bound {p1} vs {q}", "bound {p2} vs {q}", "bound {p1,p2} vs {q}"]
    rows = [
        [
            record.params["blocks"],
            record.payload["steps"],
            record.payload["bound_p1"],
            record.payload["bound_p2"],
            record.payload["bound_set"],
        ]
        for record in result.records
    ]
    return headers, rows


# ----------------------------------------------------------------------
# E2 — Theorem 23: the Figure 2 detector converges in S^k_{t+1,n}
# ----------------------------------------------------------------------

def default_detector_configs() -> List[Dict[str, Any]]:
    """The (n, t, k, bound, crashes) sweep used by the E2 experiment."""
    return [
        {"n": 3, "t": 2, "k": 1, "bound": 3, "crashes": frozenset()},
        {"n": 3, "t": 2, "k": 2, "bound": 3, "crashes": frozenset()},
        {"n": 4, "t": 2, "k": 2, "bound": 3, "crashes": frozenset()},
        {"n": 4, "t": 3, "k": 2, "bound": 4, "crashes": frozenset({4})},
        {"n": 5, "t": 2, "k": 2, "bound": 3, "crashes": frozenset({5})},
        {"n": 5, "t": 4, "k": 3, "bound": 4, "crashes": frozenset({4, 5})},
        {"n": 6, "t": 3, "k": 2, "bound": 3, "crashes": frozenset({6})},
    ]


def detector_campaign_spec(
    configs: Optional[Sequence[Dict[str, Any]]] = None,
    horizon: int = 60_000,
    seed: int = 11,
) -> CampaignSpec:
    """The E2 sweep as a declarative campaign (one run per configuration)."""
    runs: List[Dict[str, Any]] = []
    for config in configs if configs is not None else default_detector_configs():
        n, t, k = config["n"], config["t"], config["k"]
        crashes = frozenset(config.get("crashes", frozenset()))
        runs.append(
            {
                "schedule": "set-timely",
                "n": n,
                "t": t,
                "k": k,
                "bound": config.get("bound", 3),
                "crashes": crashes,
                "p_set": _first_k_correct(n, k, crashes),
                "q_set": _first_m_processes(n, t + 1),
                "seed": seed,
                "horizon": horizon,
            }
        )
    return CampaignSpec(name="anti-omega-convergence", kind="detector", runs=runs)


def detector_seed_grid_campaign_spec(
    horizon: int = 60_000,
    seeds: Sequence[int] = (11, 13, 17),
) -> CampaignSpec:
    """The E2 sweep crossed with a seed axis (the ``e2-seeds`` campaign)."""
    base_spec = detector_campaign_spec(horizon=horizon, seed=0)
    runs: List[Dict[str, Any]] = []
    for run in base_spec.runs or []:
        stripped = dict(run)
        stripped.pop("seed", None)
        runs.append(stripped)
    return CampaignSpec(
        name="e2-seeds", kind="detector", runs=runs, axes={"seed": list(seeds)}
    )


def detector_rows(result: CampaignResult) -> Rows:
    """Shape detector campaign records into the E2 table."""
    headers = [
        "n",
        "t",
        "k",
        "crashes",
        "satisfied",
        "stabilization step",
        "margin",
        "winner changes",
        "winner set",
        "contains correct",
    ]
    rows = [
        [
            record.params["n"],
            record.params["t"],
            record.params["k"],
            frozenset(record.params.get("crashes") or []),
            record.payload["satisfied"],
            record.payload["stabilization_step"],
            record.payload["margin"],
            record.payload["winner_changes"],
            _winner_set(record.payload),
            record.payload["winner_contains_correct"],
        ]
        for record in result.records
    ]
    return headers, rows


def anti_omega_convergence_experiment(
    configs: Optional[Sequence[Dict[str, Any]]] = None,
    horizon: int = 60_000,
    seed: int = 11,
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """Run the detector on certified ``S^k_{t+1,n}`` schedules and measure stabilization."""
    spec = detector_campaign_spec(configs=configs, horizon=horizon, seed=seed)
    return detector_rows(_engine(engine).run(spec))


def schedule_families_campaign_spec(
    horizon: int = 60_000,
    n: int = 4,
    t: int = 2,
    k: int = 2,
) -> CampaignSpec:
    """The schedule-family comparison as a declarative campaign."""
    runs: List[Dict[str, Any]] = [
        {
            "family": "round-robin (synchronous)",
            "schedule": "round-robin",
            "n": n,
            "t": t,
            "k": k,
            "horizon": horizon,
        },
        {
            "family": "eventually synchronous",
            "schedule": "eventually-synchronous",
            "chaos_steps": 500,
            "seed": 3,
            "n": n,
            "t": t,
            "k": k,
            "horizon": horizon,
        },
        {
            "family": "set-timely (no member individually timely)",
            "schedule": "set-timely",
            "n": n,
            "t": t,
            "k": k,
            "p_set": frozenset(range(1, k + 1)),
            "q_set": _first_m_processes(n, t + 1),
            "bound": 3,
            "seed": 3,
            "horizon": horizon,
        },
    ]
    if k >= 2:
        runs.append(
            {
                "family": "carrier rotation, asked for a smaller timely set than exists",
                "schedule": "carrier-rotation",
                "n": k + 1,
                "t": k,
                "k": k - 1,
                "carriers": frozenset(range(1, k + 1)),
                "horizon": horizon,
            }
        )
    return CampaignSpec(name="schedule-families", kind="detector", runs=runs)


def schedule_family_comparison_experiment(
    horizon: int = 60_000,
    n: int = 4,
    t: int = 2,
    k: int = 2,
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """Detector behaviour across qualitatively different schedule families.

    Puts the set-timeliness assumption in context: the degree-``k`` detector
    stabilizes on the fully synchronous round-robin schedule, on classical
    eventually synchronous schedules, and on set-timely schedules whose
    members are not individually timely.  The contrast row runs the *same
    degree* against the carrier-rotation adversary in the boundary
    configuration ``n = k + 1, t = k`` but asks it for degree ``k - 1`` —
    the schedule then has no timely set of that size and the winner never
    settles (this is the E4 separation, shown here alongside the positive
    families for context).
    """
    spec = schedule_families_campaign_spec(horizon=horizon, n=n, t=t, k=k)
    result = _engine(engine).run(spec)
    headers = [
        "schedule family",
        "n",
        "detector degree",
        "satisfied",
        "stabilized early",
        "last winner change",
        "winner changes",
        "winner contains correct",
    ]
    rows = [
        [
            record.params["family"],
            record.params["n"],
            record.params["k"],
            record.payload["satisfied"],
            record.payload["stabilized_early"],
            record.payload["last_winner_change"],
            record.payload["winner_changes"],
            record.payload["winner_contains_correct"],
        ]
        for record in result.records
    ]
    return headers, rows


def scenarios_campaign_spec(horizon: int = 40_000) -> CampaignSpec:
    """The composable scenario-family comparison as a declarative campaign."""
    runs: List[Dict[str, Any]] = [
        {
            "family": "crash-recovery churn",
            "schedule": "crash-churn",
            "n": 4,
            "t": 2,
            "k": 2,
            "seed": 9,
            "period": 64,
            "outage": 16,
            "churn": 1,
            "horizon": horizon,
        },
        {
            "family": "alternating epochs (bounded)",
            "schedule": "alternating-epochs",
            "n": 4,
            "t": 2,
            "k": 2,
            "seed": 9,
            "sync_epoch": 48,
            "async_epoch": 48,
            "epoch_growth": 0,
            "horizon": horizon,
        },
        {
            "family": "alternating epochs (growing)",
            "schedule": "alternating-epochs",
            "n": 4,
            "t": 2,
            "k": 2,
            "seed": 9,
            "sync_epoch": 48,
            "async_epoch": 48,
            "epoch_growth": 16,
            "horizon": horizon,
        },
        {
            "family": "spliced adversarial suffix",
            "schedule": "spliced-adversary",
            "n": 3,
            "t": 2,
            "k": 1,
            "carriers": [1, 2],
            "switch_at": 5_000,
            "horizon": horizon,
        },
        {
            "family": "set-timely + interleaving noise",
            "schedule": "set-timely",
            "n": 4,
            "t": 2,
            "k": 2,
            "p_set": [1, 2],
            "q_set": [1, 2, 3],
            "bound": 3,
            "seed": 9,
            "perturbations": [{"kind": "noise", "rate": 0.05, "seed": 5}],
            "horizon": horizon,
        },
    ]
    return CampaignSpec(name="scenarios", kind="detector", runs=runs)


def scenario_family_comparison_experiment(
    horizon: int = 40_000,
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """Detector behaviour across the composable scenario families (E10).

    Exercises the scenario layer end to end: the three new families —
    crash-recovery churn, alternating-synchrony epochs (bounded and growing),
    and a benign prefix spliced onto a carrier-rotation adversary — plus a
    perturbed (interleaving-noise) set-timely scenario, all swept through the
    campaign engine as ordinary ``schedule`` parameters.  The expected shape:
    churn and bounded epochs still let the degree-``k`` detector settle
    (everybody is correct and silence windows stay bounded); growing epochs
    and the spliced adversary drag the winner set back into churn — the
    splice shows up as a late ``last winner change`` long after the benign
    prefix ended; noise degrades bounds but not convergence.
    """
    spec = scenarios_campaign_spec(horizon=horizon)
    result = _engine(engine).run(spec)
    headers = [
        "scenario family",
        "n",
        "detector degree",
        "satisfied",
        "stabilized early",
        "last winner change",
        "winner changes",
        "winner contains correct",
    ]
    rows = [
        [
            record.params["family"],
            record.params["n"],
            record.params["k"],
            record.payload["satisfied"],
            record.payload["stabilized_early"],
            record.payload["last_winner_change"],
            record.payload["winner_changes"],
            record.payload["winner_contains_correct"],
        ]
        for record in result.records
    ]
    return headers, rows


# ----------------------------------------------------------------------
# E3 — Theorem 24 / Corollary 25: solving (t,k,n)-agreement in S^k_{t+1,n}
# ----------------------------------------------------------------------

def default_agreement_configs() -> List[Dict[str, Any]]:
    """The (t, k, n) sweep used by the E3 experiment (detector-based and trivial)."""
    return [
        {"n": 3, "t": 2, "k": 1, "crashes": frozenset()},
        {"n": 3, "t": 2, "k": 2, "crashes": frozenset()},
        {"n": 4, "t": 2, "k": 2, "crashes": frozenset({4})},
        {"n": 4, "t": 3, "k": 2, "crashes": frozenset()},
        {"n": 5, "t": 2, "k": 2, "crashes": frozenset({1, 2})},
        {"n": 5, "t": 3, "k": 3, "crashes": frozenset({5})},
        {"n": 4, "t": 1, "k": 2, "crashes": frozenset()},   # t < k: trivial algorithm
        {"n": 5, "t": 2, "k": 4, "crashes": frozenset({3})},  # t < k: trivial algorithm
    ]


def agreement_campaign_spec(
    configs: Optional[Sequence[Dict[str, Any]]] = None,
    horizon: int = 400_000,
    seed: int = 23,
) -> CampaignSpec:
    """The E3 sweep as a declarative campaign."""
    runs: List[Dict[str, Any]] = []
    for config in configs if configs is not None else default_agreement_configs():
        n, t, k = config["n"], config["t"], config["k"]
        crashes = frozenset(config.get("crashes", frozenset()))
        if k <= t:
            p_set = _first_k_correct(n, k, crashes)
            q_set = _first_m_processes(n, t + 1)
        else:
            p_set = _first_k_correct(n, 1, crashes)
            q_set = frozenset(range(1, n + 1))
        runs.append(
            {
                "schedule": "set-timely",
                "n": n,
                "t": t,
                "k": k,
                "crashes": crashes,
                "p_set": p_set,
                "q_set": q_set,
                "bound": 3,
                "seed": seed,
                "horizon": horizon,
            }
        )
    return CampaignSpec(name="agreement", kind="agreement", runs=runs)


def agreement_experiment(
    configs: Optional[Sequence[Dict[str, Any]]] = None,
    horizon: int = 400_000,
    seed: int = 23,
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """Solve each configured instance on a certified schedule of its matching system."""
    spec = agreement_campaign_spec(configs=configs, horizon=horizon, seed=seed)
    result = _engine(engine).run(spec)
    headers = [
        "problem",
        "system",
        "protocol",
        "crashes",
        "all correct decided",
        "distinct decisions",
        "valid",
        "max decision step",
        "steps executed",
    ]
    rows = [
        [
            record.payload["problem"],
            record.payload["system"],
            record.payload["protocol"],
            frozenset(record.params.get("crashes") or []),
            record.payload["all_correct_decided"],
            record.payload["distinct_decisions"],
            record.payload["valid"],
            record.payload["max_decision_step"],
            record.payload["steps_executed"],
        ]
        for record in result.records
    ]
    return headers, rows


# ----------------------------------------------------------------------
# E4 — Theorem 26 separation on a single adversary schedule family
# ----------------------------------------------------------------------

def separation_campaign_spec(
    k: int = 2,
    horizons: Sequence[int] = (40_000, 80_000, 160_000),
) -> CampaignSpec:
    """The E4 separation probes as a declarative campaign."""
    if k < 2:
        raise ConfigurationError(
            f"the separation experiment needs k >= 2 so that k-1 >= 1, got k={k}"
        )
    n = k + 1
    t = k
    runs: List[Dict[str, Any]] = [
        {
            "schedule": "carrier-rotation",
            "n": n,
            "t": t,
            "k": degree,
            "carriers": frozenset(range(1, k + 1)),
            "horizon": horizon,
            "prefix_length": 20_000,
            "count_size": degree,
            "count_bound": 8,
        }
        for degree in (k, k - 1)
        for horizon in horizons
    ]
    return CampaignSpec(name="separation", kind="separation-probe", runs=runs)


def separation_experiment(
    k: int = 2,
    horizons: Sequence[int] = (40_000, 80_000, 160_000),
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """The separation ``S^k_{t+1,n}`` solves (t,k,n) but not (t,k-1,n), with n = k+1, t = k.

    The same carrier-rotation schedule is fed to the detector configured for
    degree ``k`` (the solvable side: it stabilizes early and never churns
    again) and for degree ``k - 1`` (the machinery for the stronger problem:
    its winner set keeps churning all the way to every horizon, and the last
    change grows linearly with the horizon — the empirical face of
    non-stabilization).
    """
    spec = separation_campaign_spec(k=k, horizons=horizons)
    result = _engine(engine).run(spec)
    headers = [
        "degree",
        "horizon",
        "satisfied (prefix)",
        "last winner change",
        "winner changes",
        "stabilized early",
        "timely sets of this size (bound<=8)",
    ]
    rows = [
        [
            record.params["k"],
            record.params["horizon"],
            record.payload["satisfied"],
            record.payload["last_winner_change"],
            record.payload["winner_changes"],
            record.payload["stabilized_early"],
            record.payload["timely_count"],
        ]
        for record in result.records
    ]
    return headers, rows


# ----------------------------------------------------------------------
# E5 — Theorem 27 solvability map
# ----------------------------------------------------------------------

def solvability_map_experiment(
    problems: Sequence[Tuple[int, int, int]] = ((2, 2, 4), (2, 1, 4), (3, 2, 5), (4, 3, 6)),
) -> Dict[str, Dict[Tuple[int, int], Any]]:
    """Theorem 27 grids for several (t, k, n) instances, keyed by problem name.

    Pure oracle computation — no schedules are executed, so this artifact does
    not go through the campaign engine.
    """
    grids: Dict[str, Dict[Tuple[int, int], Any]] = {}
    for (t, k, n) in problems:
        problem = AgreementInstance(t=t, k=k, n=n)
        grids[problem.describe()] = solvability_grid(problem)
    return grids


def screened_solvability_grid_experiment(
    t: int = 2,
    k: int = 2,
    n: int = 4,
    horizon: int = 2_400,
    seed: int = 11,
    checkpoints: int = 8,
) -> Rows:
    """The Theorem 27 grid with empirical convergence evidence, one batched screen.

    For every cell ``(i, j)`` of the Theorem 27 grid, a set-timely
    ``S^i_{j,n}`` schedule prefix is generated with a cell-dependent horizon
    (weaker systems — larger ``j`` — get proportionally longer prefixes), and
    the degree-``k`` detector's convergence screen runs over *all* cells in a
    single :func:`~repro.search.properties.screen_generation` call (one
    tracked run per cell on one rewound replica).

    The table pairs each cell's analytic Theorem 27 verdict with the screened
    evidence: whether every process published an output, the checkpoint from
    which some correct process stayed unsuspected, and the last checkpoint at
    which any output changed.
    """
    from ..scenarios.spec import build_generator
    from ..search.properties import KAntiOmegaConvergenceProperty, screen_generation

    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    problem = AgreementInstance(t=t, k=k, n=n)
    grid = solvability_grid(problem)
    prop = KAntiOmegaConvergenceProperty(n=n, t=t, k=k)
    cells = sorted(grid)
    compileds = []
    for (i, j) in cells:
        generator = build_generator(
            {
                "schedule": "set-timely",
                "n": n,
                "p_set": frozenset(range(1, i + 1)),
                "q_set": frozenset(range(1, j + 1)),
                "bound": 3,
                "seed": seed,
            }
        )
        compileds.append(generator.compile(max(2, horizon * j // n)))
    verdicts = screen_generation(prop, compileds, checkpoints)
    headers = [
        "i",
        "j",
        "solvable (Thm 27)",
        "horizon",
        "all produced",
        "stable from ckpt",
        "last change ckpt",
        "screen violated",
    ]
    rows = [
        [
            i,
            j,
            grid[(i, j)].solvable,
            len(compiled),
            verdict.details["all_correct_produced"],
            verdict.details["stable_from_checkpoint"],
            verdict.details["last_change_checkpoint"],
            verdict.violated,
        ]
        for (i, j), compiled, verdict in zip(cells, compileds, verdicts)
    ]
    return headers, rows


def separation_statements_experiment(
    problems: Sequence[Tuple[int, int, int]] = ((2, 2, 4), (3, 2, 5), (2, 1, 4)),
) -> Rows:
    """The paper's separation statements derived from the oracle, with verdicts."""
    headers = ["matching system", "solvable problem", "unsolvable problem", "oracle consistent"]
    rows: List[List[Any]] = []
    for (t, k, n) in problems:
        problem = AgreementInstance(t=t, k=k, n=n)
        for statement in separations(problem):
            solvable_ok = classify(statement.solvable_problem, statement.system).solvable
            unsolvable_ok = not classify(statement.unsolvable_problem, statement.system).solvable
            rows.append(
                [
                    statement.system.describe(),
                    statement.solvable_problem.describe(),
                    statement.unsolvable_problem.describe(),
                    solvable_ok and unsolvable_ok,
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# E11 — adversarial schedule search (falsify → shrink → certify)
# ----------------------------------------------------------------------

def falsification_experiment(
    properties: Sequence[str] = (
        "k-anti-omega-convergence",
        "leader-set-convergence",
        "agreement-safety",
    ),
    generations: int = 5,
    seed: int = 0,
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """Falsification attempts per property: the E11 table.

    Each row runs one smoke-scale falsify → shrink → certify search
    (:func:`repro.search.run_search`) against one registered property.  The
    expected shape — the paper standing — is **0 in-model violations** on
    every row, together with a reproducible out-of-model/near-miss frontier
    (mutated schedules that destroy the certified timely set and drag the
    detector's stabilization delay toward the horizon), whose shrunk minimal
    reproducers are catalogued in ``docs/COUNTEREXAMPLES.md``.

    Search generations execute as content-addressed campaign runs, so passing
    a cached ``engine`` makes re-tabulations replay cached generations.
    """
    from ..search import SearchConfig, run_search

    headers = [
        "property",
        "candidates",
        "screen flags",
        "confirmed violations",
        "in-model violations",
        "out-of-model",
        "near misses",
        "best fitness",
        "min reproducer (steps)",
    ]
    rows: List[List[Any]] = []
    for name in properties:
        config = SearchConfig.smoke_config(name, generations=generations, seed=seed)
        report = run_search(config, engine=engine)
        in_model = report.in_model_violation_count()
        out_of_model = len(report.violations(in_model=False))
        rows.append(
            [
                name,
                report.candidates_evaluated(),
                sum(stats.screen_violations for stats in report.generations),
                in_model + out_of_model,
                in_model,
                out_of_model,
                len(report.near_misses()),
                report.best_fitness(),
                min((finding.shrunk_length for finding in report.findings), default=None),
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# A1 / A2 — ablations of the Figure 2 design choices
# ----------------------------------------------------------------------

def accusation_ablation_campaign_spec(
    horizon: int = 80_000,
    n: int = 4,
    t: int = 2,
    k: int = 2,
) -> CampaignSpec:
    """The A1 accusation-statistic ablation as a declarative campaign."""
    crashed = frozenset({1, 2})
    scenarios: List[Dict[str, Any]] = [
        {
            "scenario": "crashed-min-set",
            "schedule": "set-timely",
            "n": n,
            "t": t,
            "k": k,
            "crashes": crashed,
            "p_set": _first_k_correct(n, k, crashed),
            "q_set": frozenset(range(1, n + 1)) - crashed,
            "bound": 3,
            "seed": 5,
            "horizon": horizon,
        },
        {
            "scenario": "bursty-observer",
            "schedule": "set-timely",
            "n": n,
            "t": t,
            "k": k,
            "p_set": frozenset(range(1, k + 1)),
            "q_set": _first_m_processes(n, t + 1),
            "bound": 3,
            "seed": 5,
            "burst_set": frozenset({n}),
            "burst_base": 400,
            "burst_growth": 200,
            "horizon": horizon,
        },
    ]
    return CampaignSpec(
        name="accusation-ablation",
        kind="detector",
        runs=scenarios,
        axes={"statistic": ["paper", "min", "max", "median"]},
    )


def accusation_ablation_experiment(
    horizon: int = 80_000,
    n: int = 4,
    t: int = 2,
    k: int = 2,
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """Replace the (t+1)-st smallest accusation statistic and observe the damage.

    Two scenarios probe the two directions of Lemma 15:

    * **crashed-min-set** — processes {1, 2} (the lexicographically smallest
      k-set) are crashed from the start.  The *min* and *median* statistics
      never let that set's accusation grow past the crashed processes' frozen
      zero entries, so the winner set converges to a set with no correct
      member and the detector property fails; the paper's statistic (and, with
      t+1 = n-1 here, even *max*) moves past it.
    * **bursty-observer** — process 4 is correct but takes ever-growing bursts
      of solo steps, during which it accuses every set it does not belong to,
      so exactly one entry of every such set's counter vector diverges.  The
      paper's statistic ignores a single divergent entry and stabilizes on a
      winner set regardless; *max* is forced to avoid divergent sets and lands
      on a different winner after more churn.  (Making *max* churn forever
      requires every candidate set to have a divergent entry, which needs a
      more contrived failure pattern than this workload produces within the
      default horizon.)
    """
    spec = accusation_ablation_campaign_spec(horizon=horizon, n=n, t=t, k=k)
    result = _engine(engine).run(spec)
    headers = [
        "scenario",
        "statistic",
        "satisfied",
        "winner set",
        "contains correct",
        "winner changes",
        "last winner change",
    ]
    rows = [
        [
            record.params["scenario"],
            STATISTIC_LABELS[record.params["statistic"]],
            record.payload["satisfied"],
            _winner_set(record.payload),
            record.payload["winner_contains_correct"],
            record.payload["winner_changes"],
            record.payload["last_winner_change"],
        ]
        for record in result.records
    ]
    return headers, rows


def timeout_ablation_campaign_spec(
    horizon: int = 200_000,
    n: int = 4,
    t: int = 2,
    k: int = 2,
    bound: int = 400,
) -> CampaignSpec:
    """The A2 timeout-policy ablation as a declarative campaign."""
    return CampaignSpec(
        name="timeout-ablation",
        kind="detector",
        base={
            "schedule": "set-timely",
            "n": n,
            "t": t,
            "k": k,
            "p_set": frozenset(range(1, k + 1)),
            "q_set": _first_m_processes(n, t + 1),
            "bound": bound,
            "seed": 17,
            "horizon": horizon,
        },
        axes={"policy": ["paper", "doubling", "constant"]},
    )


def timeout_ablation_experiment(
    horizon: int = 200_000,
    n: int = 4,
    t: int = 2,
    k: int = 2,
    bound: int = 400,
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """Compare timeout growth policies (line 17): +1 (paper), doubling, constant.

    The timeliness bound is deliberately large (``bound`` steps — several
    detector iterations), so observers really do have to grow their timeouts
    beyond 1 before they stop accusing the timely set.  The constant policy
    never does, so its counters for the timely set keep growing and the winner
    churns; the paper's +1 policy and the doubling policy both stabilize, the
    doubling one after fewer expirations.
    """
    spec = timeout_ablation_campaign_spec(horizon=horizon, n=n, t=t, k=k, bound=bound)
    result = _engine(engine).run(spec)
    headers = [
        "policy",
        "satisfied",
        "stabilization step",
        "winner changes",
        "last winner change",
        "margin",
    ]
    rows = [
        [
            POLICY_LABELS[record.params["policy"]],
            record.payload["satisfied"],
            record.payload["stabilization_step"],
            record.payload["winner_changes"],
            record.payload["last_winner_change"],
            record.payload["margin"],
        ]
        for record in result.records
    ]
    return headers, rows


# ----------------------------------------------------------------------
# E12 — set-timeliness emergence from message timeliness (distsim)
# ----------------------------------------------------------------------

def dist_emergence_campaign_spec(
    horizon: int = 2_400,
    threshold: int = 8,
    seed: int = 0,
) -> CampaignSpec:
    """The E12 latency-distribution sweep as a declarative campaign.

    Every run records a ``dist-sticky-failover`` timeline (coordinator
    ``p3`` firing requests at the replica set ``{p1, p2}``) and reduces it to
    a schedule; the axis is the message-latency distribution.  Two arms are
    controls: ``round-robin`` balancing (both members individually timely —
    no emergence) and a mid-run partition cutting the coordinator off (the
    *set* loses timeliness too).
    """
    base: Dict[str, Any] = {
        "schedule": "dist-sticky-failover",
        "n": 3,
        "seed": seed,
        "interval": 8,
        "epoch": 4,
        "p_set": [1, 2],
        "q_set": [3],
        "horizon": horizon,
        "threshold": threshold,
    }
    runs: List[Dict[str, Any]] = [
        {**base, "arm": "sticky / constant", "latency": "constant", "latency_scale": 2},
        {
            **base,
            "arm": "sticky / uniform",
            "latency": "uniform",
            "latency_scale": 2,
            "latency_spread": 8,
        },
        {
            **base,
            "arm": "sticky / pareto α=1.6",
            "latency": "pareto",
            "latency_scale": 3,
            "latency_alpha": 1.6,
        },
        {
            **base,
            "arm": "sticky / pareto α=1.1",
            "latency": "pareto",
            "latency_scale": 3,
            "latency_alpha": 1.1,
        },
        {
            **base,
            "arm": "round-robin / constant",
            "balance": "round-robin",
            "latency": "constant",
            "latency_scale": 2,
        },
        {
            **base,
            "arm": "sticky / partitioned",
            "latency": "constant",
            "latency_scale": 2,
            "partitions": [
                {"start": 2_000, "duration": 3_000, "groups": [[1, 2], [3]]}
            ],
        },
    ]
    return CampaignSpec(name="dist-emergence", kind="dist-timeliness", runs=runs)


def set_timeliness_emergence_experiment(
    horizon: int = 2_400,
    threshold: int = 8,
    engine: Optional[CampaignEngine] = None,
) -> Rows:
    """E12: set timeliness *emerging* from message timeliness, per latency model.

    The paper's central distinction — a set that is timely while no member is
    — reproduced in a message-passing system instead of being postulated: the
    sticky-doubling failover workload keeps the replica *set* answering every
    coordinator request within a couple of request rounds (small set bound),
    while each individual replica is starved for exponentially growing epochs
    (member bounds grow with the horizon).  Heavier latency tails widen the
    set bound; the round-robin and partition arms show the two ways emergence
    dies (members become timely too / the set loses timeliness as well).
    """
    spec = dist_emergence_campaign_spec(horizon=horizon, threshold=threshold)
    result = _engine(engine).run(spec)
    headers = [
        "workload arm",
        "latency",
        "set bound {p1,p2}",
        "best member bound",
        "predicted bound",
        "max latency",
        "set timely",
        "timely members",
        "emerged",
    ]
    rows = []
    for record in result.records:
        payload = record.payload
        latency = str(record.params["latency"])
        if record.params.get("latency_alpha") is not None:
            latency += f"(α={record.params['latency_alpha']})"
        member_bounds = payload["member_bounds"].values()
        rows.append(
            [
                record.params["arm"],
                latency,
                payload["set_bound"],
                min(member_bounds) if member_bounds else "-",
                payload["predicted_bound"],
                payload["messages"]["max_latency"],
                payload["set_timely"],
                ",".join(str(pid) for pid in payload["timely_members"]) or "none",
                payload["emerged"],
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# Named campaign registry (what `repro queue enqueue <name>` expands)
# ----------------------------------------------------------------------

def named_campaign_spec(
    name: str,
    *,
    horizon: Optional[int] = None,
    seed: Optional[int] = None,
    k: int = 2,
    seeds: Sequence[int] = (11, 13, 17),
) -> CampaignSpec:
    """The spec behind a CLI campaign name (``e1``/``e2``/.../``a2``).

    One authoritative mapping from the names ``repro campaign`` and ``repro
    queue enqueue`` accept to declarative specs, with the same defaults the
    table-printing harnesses use — so a queue drained out-of-band executes
    byte-for-byte the same runs the foreground campaign would.
    """
    if name == "e1":
        return figure1_campaign_spec()
    if name == "e2":
        return detector_campaign_spec(
            horizon=horizon or 60_000, seed=seed if seed is not None else 11
        )
    if name == "e2-seeds":
        return detector_seed_grid_campaign_spec(horizon=horizon or 60_000, seeds=seeds)
    if name == "e3":
        return agreement_campaign_spec(
            horizon=horizon or 400_000, seed=seed if seed is not None else 23
        )
    if name == "e4":
        horizons = (horizon,) if horizon is not None else (40_000, 80_000, 160_000)
        return separation_campaign_spec(k=k, horizons=horizons)
    if name == "families":
        return schedule_families_campaign_spec(horizon=horizon or 60_000)
    if name == "scenarios":
        return scenarios_campaign_spec(horizon=horizon or 40_000)
    if name == "a1":
        return accusation_ablation_campaign_spec(horizon=horizon or 80_000)
    if name == "a2":
        return timeout_ablation_campaign_spec(horizon=horizon or 200_000)
    if name == "e12":
        return dist_emergence_campaign_spec(
            horizon=horizon or 2_400, seed=seed if seed is not None else 0
        )
    raise ConfigurationError(
        f"unknown campaign {name!r}; expected one of e1, e2, e2-seeds, e3, e4, "
        "e12, families, scenarios, a1, a2"
    )
