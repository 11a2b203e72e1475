"""Experiment harness: the paper's artifacts (E1–E12, A1–A2) as tables.

Every table function returns ``(headers, rows)`` ready for
:func:`repro.analysis.reporting.ascii_table`.  The benchmarks and the CLI call
these functions and print the tables; the numbers recorded in EXPERIMENTS.md
come from exactly these code paths, so the document can always be regenerated.

Every *run-based* artifact (E1–E4, E10, E12, A1, A2 and the schedule-family
comparison) is one entry of :data:`EXPERIMENT_REGISTRY`: a declarative
:class:`~repro.campaign.spec.CampaignSpec` builder, the column list that
shapes its per-run records into the paper's table, its title and
EXPERIMENTS.md section, and the standalone subcommand that prints it.
:func:`run_experiment` executes any entry through a
:class:`~repro.campaign.engine.CampaignEngine` (serial by default — pass
``engine=CampaignEngine(workers=4, cache=...)`` to parallelize and cache), and
:func:`experiment_params` is the one rule by which ``repro <exp>``,
``repro campaign <name>`` and ``repro queue enqueue <name>`` apply
command-line overrides.  The solvability-oracle artifacts (E5) and the
adversarial search (E11) stay direct calls: the oracle executes no schedules,
and a search is not a fixed grid of runs.

Default parameters are sized to finish in seconds on a laptop; callers can
scale them up for higher-confidence runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..campaign.engine import CampaignEngine, CampaignResult
from ..campaign.records import RunRecord
from ..campaign.spec import CampaignSpec
from ..core.solvability import classify, separations, solvability_grid
from ..errors import ConfigurationError
from ..types import AgreementInstance

Rows = Tuple[List[str], List[List[Any]]]

#: One table column: its header and where each cell comes from — a dotted
#: path into the run record (``params.<key>`` or ``payload.<key>[.<key>]``),
#: or a function of the record for derived cells.
Column = Tuple[str, Union[str, Callable[[RunRecord], Any]]]

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


def _winner_set(record: RunRecord) -> Optional[tuple]:
    winner = record.payload.get("winner_set")
    return tuple(winner) if winner is not None else None


def _crashes(record: RunRecord) -> frozenset:
    return frozenset(record.params.get("crashes") or [])


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
    """The E1 prefix sweep: timeliness bounds on growing Figure 1 prefixes.

    The paper's claim: neither ``p1`` nor ``p2`` is timely with respect to
    ``q`` (their observed bounds grow with the prefix), but the set
    ``{p1, p2}`` is timely with bound 2 (constant).
    """
    return CampaignSpec(
        name="figure1",
        kind="figure1",
        runs=[{"blocks": block_count} for block_count in blocks],
    )


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
    """The E2 sweep: the detector on certified ``S^k_{t+1,n}`` schedules.

    One run per configuration; each measures the detector's stabilization.
    """
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


def schedule_families_campaign_spec(
    horizon: int = 60_000,
    n: int = 4,
    t: int = 2,
    k: int = 2,
) -> CampaignSpec:
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


def scenarios_campaign_spec(horizon: int = 40_000) -> CampaignSpec:
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
    """The E3 sweep: each instance solved on a certified schedule of its matching system."""
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


# ----------------------------------------------------------------------
# E4 — Theorem 26 separation on a single adversary schedule family
# ----------------------------------------------------------------------

def separation_campaign_spec(
    k: int = 2,
    horizons: Sequence[int] = (40_000, 80_000, 160_000),
) -> CampaignSpec:
    """The separation ``S^k_{t+1,n}`` solves (t,k,n) but not (t,k-1,n), with n = k+1, t = k.

    The same carrier-rotation schedule is fed to the detector configured for
    degree ``k`` (the solvable side: it stabilizes early and never churns
    again) and for degree ``k - 1`` (the machinery for the stronger problem:
    its winner set keeps churning all the way to every horizon, and the last
    change grows linearly with the horizon — the empirical face of
    non-stabilization).
    """
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
    every row (the tests pin 0 on the smoke configurations only; longer
    finite prefixes can report in-model verdicts of eventual properties, see
    ROADMAP item 1), together with a reproducible out-of-model/near-miss
    frontier (mutated schedules that destroy the certified timely set and
    drag the detector's stabilization delay toward the horizon), whose shrunk
    minimal reproducers are catalogued in ``docs/COUNTEREXAMPLES.md``.

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
    """A1: replace the (t+1)-st smallest accusation statistic and observe the damage.

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


def timeout_ablation_campaign_spec(
    horizon: int = 200_000,
    n: int = 4,
    t: int = 2,
    k: int = 2,
    bound: int = 400,
) -> CampaignSpec:
    """A2: timeout growth policies (line 17): +1 (paper), doubling, constant.

    The timeliness bound is deliberately large (``bound`` steps — several
    detector iterations), so observers really do have to grow their timeouts
    beyond 1 before they stop accusing the timely set.  The constant policy
    never does, so its counters for the timely set keep growing and the winner
    churns; the paper's +1 policy and the doubling policy both stabilize, the
    doubling one after fewer expirations.
    """
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


# ----------------------------------------------------------------------
# E12 — set-timeliness emergence from message timeliness (distsim)
# ----------------------------------------------------------------------

def dist_emergence_campaign_spec(
    horizon: int = 2_400,
    threshold: int = 8,
    seed: int = 0,
) -> CampaignSpec:
    """E12: set timeliness *emerging* from message timeliness, per latency model.

    The paper's central distinction — a set that is timely while no member is
    — reproduced in a message-passing system instead of being postulated: the
    sticky-doubling failover workload keeps the replica *set* answering every
    coordinator request within a couple of request rounds (small set bound),
    while each individual replica is starved for exponentially growing epochs
    (member bounds grow with the horizon).  Heavier latency tails widen the
    set bound; the round-robin and partition arms show the two ways emergence
    dies (members become timely too / the set loses timeliness as well).

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


def _latency_label(record: RunRecord) -> str:
    latency = str(record.params["latency"])
    alpha = record.params.get("latency_alpha")
    return latency if alpha is None else f"{latency}(α={alpha})"


def _best_member_bound(record: RunRecord) -> Any:
    bounds = record.payload["member_bounds"].values()
    return min(bounds) if bounds else "-"


def _timely_members(record: RunRecord) -> str:
    return ",".join(str(pid) for pid in record.payload["timely_members"]) or "none"


# ----------------------------------------------------------------------
# The experiment registry: what `repro <exp>`, `repro campaign <name>` and
# `repro queue enqueue <name>` run
# ----------------------------------------------------------------------

def _cell(record: RunRecord, source: Union[str, Callable[[RunRecord], Any]]) -> Any:
    if callable(source):
        return source(record)
    section, *path = source.split(".")
    value: Any = getattr(record, section)
    for key in path:
        value = value[key]
    return value


@dataclass(frozen=True)
class Experiment:
    """One campaign-backed paper artifact: everything needed to run and print it.

    ``build`` is the artifact's ``*_campaign_spec`` builder; its parameters
    are exactly the overrides the entry accepts (:func:`experiment_params`).
    ``columns`` shapes the run records into the artifact's table; ``None``
    means the engine's generic record table, which the CLI follows with the
    engine's own run summary.  ``command`` is the standalone subcommand that
    prints the table (``None`` when there is none besides ``repro campaign``;
    E12's is ``repro distsim --table``, whose parser also serves
    single-workload runs), and ``flags`` are that subcommand's options with
    their defaults, each named after a parameter of ``build``.
    """

    name: str
    title: str
    section: str
    build: Callable[..., CampaignSpec]
    columns: Optional[Tuple[Column, ...]] = None
    command: Optional[str] = None
    flags: Mapping[str, Any] = field(default_factory=dict)

    def rows(self, result: CampaignResult) -> Rows:
        """Shape a campaign result into the artifact's ``(headers, rows)`` table."""
        if self.columns is None:
            return result.table()
        headers = [header for header, _ in self.columns]
        rows = [
            [_cell(record, source) for _, source in self.columns]
            for record in result.records
        ]
        return headers, rows


def _family_columns(first_header: str) -> Tuple[Column, ...]:
    """The family-comparison table; its schedule and scenario forms differ in the first header."""
    return (
        (first_header, "params.family"),
        ("n", "params.n"),
        ("detector degree", "params.k"),
        ("satisfied", "payload.satisfied"),
        ("stabilized early", "payload.stabilized_early"),
        ("last winner change", "payload.last_winner_change"),
        ("winner changes", "payload.winner_changes"),
        ("winner contains correct", "payload.winner_contains_correct"),
    )


_E2_SECTION = "E2 — Theorem 23: Figure 2 implements k-anti-Ω in S^k_{t+1,n}"

#: Every campaign-backed artifact, keyed by its campaign name, in listing order.
EXPERIMENT_REGISTRY: Dict[str, Experiment] = {
    entry.name: entry
    for entry in (
        Experiment(
            name="e1",
            title="E1 — Figure 1 observed timeliness bounds",
            section="E1 — Figure 1: set timeliness without individual timeliness",
            build=figure1_campaign_spec,
            columns=(
                ("blocks", "params.blocks"),
                ("steps", "payload.steps"),
                ("bound {p1} vs {q}", "payload.bound_p1"),
                ("bound {p2} vs {q}", "payload.bound_p2"),
                ("bound {p1,p2} vs {q}", "payload.bound_set"),
            ),
            command="figure1",
            flags={"blocks": (2, 4, 8, 16, 32)},
        ),
        Experiment(
            name="e2",
            title="E2 — k-anti-Ω convergence on certified S^k_{t+1,n} schedules",
            section=_E2_SECTION,
            build=detector_campaign_spec,
            columns=(
                ("n", "params.n"),
                ("t", "params.t"),
                ("k", "params.k"),
                ("crashes", _crashes),
                ("satisfied", "payload.satisfied"),
                ("stabilization step", "payload.stabilization_step"),
                ("margin", "payload.margin"),
                ("winner changes", "payload.winner_changes"),
                ("winner set", _winner_set),
                ("contains correct", "payload.winner_contains_correct"),
            ),
            command="detector",
            flags={"horizon": 60_000},
        ),
        Experiment(
            name="e2-seeds",
            title="E2 × seed grid — the detector sweep crossed with a seed axis",
            section=_E2_SECTION,
            build=detector_seed_grid_campaign_spec,
        ),
        Experiment(
            name="e3",
            title="E3 — (t,k,n)-agreement on certified schedules",
            section="E3 — Theorem 24 / Corollary 25: (t,k,n)-agreement in S^k_{t+1,n}",
            build=agreement_campaign_spec,
            columns=(
                ("problem", "payload.problem"),
                ("system", "payload.system"),
                ("protocol", "payload.protocol"),
                ("crashes", _crashes),
                ("all correct decided", "payload.all_correct_decided"),
                ("distinct decisions", "payload.distinct_decisions"),
                ("valid", "payload.valid"),
                ("max decision step", "payload.max_decision_step"),
                ("steps executed", "payload.steps_executed"),
            ),
            command="agreement",
            flags={"horizon": 600_000},
        ),
        Experiment(
            name="e4",
            title="E4 — Theorem 26 separation on the carrier-rotation adversary",
            section="E4 — Theorem 26: the separation, empirically",
            build=separation_campaign_spec,
            columns=(
                ("degree", "params.k"),
                ("horizon", "params.horizon"),
                ("satisfied (prefix)", "payload.satisfied"),
                ("last winner change", "payload.last_winner_change"),
                ("winner changes", "payload.winner_changes"),
                ("stabilized early", "payload.stabilized_early"),
                ("timely sets of this size (bound<=8)", "payload.timely_count"),
            ),
            command="separation",
            flags={"k": 2, "horizons": (40_000, 80_000, 160_000)},
        ),
        Experiment(
            name="families",
            title="detector across schedule families",
            section=_E2_SECTION,
            build=schedule_families_campaign_spec,
            columns=_family_columns("schedule family"),
        ),
        Experiment(
            name="scenarios",
            title="E10 — detector across the composable scenario families",
            section="E10 — the composable scenario families",
            build=scenarios_campaign_spec,
            columns=_family_columns("scenario family"),
        ),
        Experiment(
            name="a1",
            title="A1 — accusation-statistic ablation",
            section="A1 — ablation: the accusation statistic (Figure 2, line 3)",
            build=accusation_ablation_campaign_spec,
            columns=(
                ("scenario", "params.scenario"),
                ("statistic", lambda record: STATISTIC_LABELS[record.params["statistic"]]),
                ("satisfied", "payload.satisfied"),
                ("winner set", _winner_set),
                ("contains correct", "payload.winner_contains_correct"),
                ("winner changes", "payload.winner_changes"),
                ("last winner change", "payload.last_winner_change"),
            ),
            command="ablation-accusation",
        ),
        Experiment(
            name="a2",
            title="A2 — timeout growth policy ablation",
            section="A2 — ablation: the timeout growth policy (Figure 2, line 17)",
            build=timeout_ablation_campaign_spec,
            columns=(
                ("policy", lambda record: POLICY_LABELS[record.params["policy"]]),
                ("satisfied", "payload.satisfied"),
                ("stabilization step", "payload.stabilization_step"),
                ("winner changes", "payload.winner_changes"),
                ("last winner change", "payload.last_winner_change"),
                ("margin", "payload.margin"),
            ),
            command="ablation-timeout",
            flags={"horizon": 200_000, "bound": 400},
        ),
        Experiment(
            name="e12",
            title="E12: set timeliness emerging from message timeliness",
            section="E12 — set-timeliness emergence from message timeliness (distsim)",
            build=dist_emergence_campaign_spec,
            columns=(
                ("workload arm", "params.arm"),
                ("latency", _latency_label),
                ("set bound {p1,p2}", "payload.set_bound"),
                ("best member bound", _best_member_bound),
                ("predicted bound", "payload.predicted_bound"),
                ("max latency", "payload.messages.max_latency"),
                ("set timely", "payload.set_timely"),
                ("timely members", _timely_members),
                ("emerged", "payload.emerged"),
            ),
        ),
    )
}


def experiment(name: str) -> Experiment:
    """The registry entry behind a campaign name (``e1``, ``e2``, ..., ``e12``)."""
    try:
        return EXPERIMENT_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown campaign {name!r}; expected one of {', '.join(EXPERIMENT_REGISTRY)}"
        ) from None


#: Why a command-line override has no effect on an entry that does not take it.
_NO_EFFECT = {
    "horizon": "it has no step horizon",
    "seed": "seeds are fixed by the artifact",
    "k": "its degree is fixed by the artifact",
    "seeds": "it has no seed axis",
}


def experiment_params(name: str, **overrides: Any) -> Tuple[Dict[str, Any], List[str]]:
    """Apply command-line overrides to entry ``name``: ``(builder params, notes)``.

    The one override rule of ``repro <exp>``, ``repro campaign`` and ``repro
    queue enqueue``: an override counts when it is not ``None``, and the entry
    takes it when its spec builder has a parameter of that name (a single
    ``horizon`` fills a builder's ``horizons`` axis).  Any other override
    yields a "no effect" note instead of being dropped silently.  A horizon
    below 1 is rejected here, before anything runs or is enqueued.
    """
    from inspect import signature

    accepted = signature(experiment(name).build).parameters
    params: Dict[str, Any] = {}
    notes: List[str] = []
    for key, value in overrides.items():
        if value is None:
            continue
        if key == "horizon" and key not in accepted and "horizons" in accepted:
            key, value = "horizons", (value,)
        if key in accepted:
            params[key] = value
        else:
            why = _NO_EFFECT[key]
            if key == "seed" and "seeds" in accepted:
                why = "its seeds are an axis: use --seeds"
            notes.append(f"note: --{key} has no effect on campaign {name!r} ({why})")
    for horizon in (params.get("horizon", 1), *params.get("horizons", ())):
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    return params, notes


def run_experiment(name: str, engine: Optional[CampaignEngine] = None, **params: Any) -> Rows:
    """Run registry entry ``name`` with spec-builder ``params``; return its table."""
    entry = experiment(name)
    return entry.rows(_engine(engine).run(entry.build(**params)))

