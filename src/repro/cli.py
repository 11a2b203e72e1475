"""Command-line interface: run the paper's experiments without writing code.

Usage (installed or from a checkout)::

    python -m repro list                      # list available experiments
    python -m repro figure1                   # E1
    python -m repro detector --horizon 60000  # E2
    python -m repro agreement                 # E3
    python -m repro separation --k 2          # E4
    python -m repro map --t 2 --k 2 --n 4     # E5 (one problem's grid)
    python -m repro ablation-accusation       # A1
    python -m repro ablation-timeout          # A2
    python -m repro solve --t 2 --k 2 --n 4   # one end-to-end agreement run
    python -m repro scenarios                 # list composable scenario families
    python -m repro scenarios crash-churn     # E10: run the detector on one
    python -m repro campaign scenarios        # E10 as a campaign sweep
    python -m repro search --smoke            # E11: falsify -> shrink -> certify
    python -m repro distsim                   # list message-passing workloads
    python -m repro distsim --table           # E12: set-timeliness emergence

Every command prints the same ASCII tables the benchmarks record, so the CLI
is the quickest way to regenerate a single entry of EXPERIMENTS.md; every
subcommand's ``--help`` epilog names the EXPERIMENTS.md section it
regenerates.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import __version__
from .agreement.problem import distinct_inputs
from .agreement.runner import solve_agreement
from .analysis.experiment import (
    EXPERIMENT_REGISTRY,
    experiment_params,
    run_experiment,
    separation_statements_experiment,
    solvability_map_experiment,
)
from .analysis.reporting import ascii_table, render_solvability_grid
from .campaign import (
    CampaignEngine,
    DurableCampaignEngine,
    FaultPlan,
    JobQueue,
    QueueWorker,
    ResultCache,
    drain_queue,
    read_jsonl,
)
from .campaign.records import record_columns
from .core.schedule import tally_steps
from .core.solvability import matching_system, solvable_frontier
from .errors import ConfigurationError
from .scenarios import build_generator as build_scenario_generator
from .scenarios import family_descriptions
from .schedules.set_timely import SetTimelyGenerator
from .types import AgreementInstance

#: The experiment registry's standalone subcommands (``repro figure1``, ...).
STANDALONE = {
    entry.command: entry for entry in EXPERIMENT_REGISTRY.values() if entry.command
}

#: The other subcommands, with one-line descriptions.
EXPERIMENTS = {
    "map": "E5 — Theorem 27 solvability map for one problem",
    "separations": "E5 — separation statements cross-checked against the oracle",
    "solve": "one end-to-end agreement run in the matching system",
    "scenarios": "list the composable scenario families, or run the detector on one",
    "search": "E11 — adversarial schedule search: falsify → shrink → certify",
    "distsim": "E12 — message-passing timelines reduced to schedules; set "
    "timeliness emerges from message timeliness",
    "campaign": "run a named campaign through the parallel campaign engine",
    "queue": "durable crash-safe campaign queue: enqueue, work, status, drain",
    "report": "re-aggregate a campaign's JSON-lines record file into a table",
}

#: The EXPERIMENTS.md section each other subcommand regenerates (``--help``
#: epilogs); a standalone registry subcommand names its entry's section.
EXPERIMENTS_MD_SECTIONS = {
    "list": "the artifact index (all sections)",
    "map": "E5 — Theorem 27: the exact solvability map",
    "separations": "E5 — Theorem 27: the exact solvability map",
    "solve": "E3 — Theorem 24 / Corollary 25: (t,k,n)-agreement in S^k_{t+1,n}",
    "scenarios": "E10 — the composable scenario families",
    "search": "E11 — adversarial schedule search (falsify → shrink → certify)",
    "distsim": "E12 — set-timeliness emergence from message timeliness (distsim)",
    "campaign": "E1–E4, E10, A1–A2 (campaign forms) and 'Campaign engine speedup'",
    "queue": "Durable queue — crash-safe campaigns",
    "report": "Campaign engine speedup (JSON-lines record aggregation)",
}


def _epilog(command: str) -> str:
    """The ``--help`` epilog naming a subcommand's EXPERIMENTS.md section."""
    entry = STANDALONE.get(command)
    section = entry.section if entry else EXPERIMENTS_MD_SECTIONS[command]
    return f"Documented in EXPERIMENTS.md, section: {section}"


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    """The registry override flags of ``campaign`` and ``queue enqueue``.

    Each defaults to ``None``, so a campaign keeps its spec builder's default
    unless the flag is given; a flag the campaign does not take prints a "no
    effect" note (:func:`~repro.analysis.experiment.experiment_params`).
    """
    parser.add_argument("--horizon", type=int, default=None, help="override the step horizon")
    parser.add_argument("--seed", type=int, default=None, help="override the schedule seed")
    parser.add_argument("--k", type=int, default=None, help="override the detector degree")
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=None, help="override the seed axis"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Partial Synchrony Based on Set Timeliness' (PODC 2009)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser(
        "list", help="list available experiments", epilog=_epilog("list")
    )

    for command, entry in STANDALONE.items():
        standalone = subparsers.add_parser(command, help=entry.title, epilog=_epilog(command))
        for flag, default in entry.flags.items():
            if isinstance(default, tuple):
                standalone.add_argument(f"--{flag}", type=int, nargs="+", default=list(default))
            else:
                standalone.add_argument(f"--{flag}", type=int, default=default)

    grid = subparsers.add_parser("map", help=EXPERIMENTS["map"], epilog=_epilog("map"))
    grid.add_argument("--t", type=int, required=True)
    grid.add_argument("--k", type=int, required=True)
    grid.add_argument("--n", type=int, required=True)
    grid.add_argument(
        "--screen",
        action="store_true",
        help="also screen one set-timely prefix per grid cell (all cells batched "
        "through one screen_generation call) and print the "
        "empirical convergence evidence next to the Theorem 27 verdicts",
    )
    grid.add_argument(
        "--horizon", type=int, default=2_400, help="base horizon for --screen prefixes"
    )
    grid.add_argument("--seed", type=int, default=11, help="seed for --screen prefixes")

    subparsers.add_parser(
        "separations", help=EXPERIMENTS["separations"], epilog=_epilog("separations")
    )

    scenarios = subparsers.add_parser(
        "scenarios", help=EXPERIMENTS["scenarios"], epilog=_epilog("scenarios")
    )
    scenarios.add_argument(
        "family", nargs="?", default=None, help="scenario family to run (omit to list them)"
    )
    scenarios.add_argument("--n", type=int, default=4)
    scenarios.add_argument("--t", type=int, default=2)
    scenarios.add_argument("--k", type=int, default=2)
    scenarios.add_argument("--horizon", type=int, default=40_000)
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument(
        "--census",
        type=int,
        default=2_000,
        help="prefix length for the per-process step census table",
    )
    scenarios.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra family parameter (repeatable); comma-separated values become lists",
    )
    scenarios.add_argument(
        "--perturb",
        action="append",
        default=[],
        metavar="KIND:RATE[:SEED]",
        help="wrap the scenario in a perturbation (noise or stutter; repeatable)",
    )

    solve = subparsers.add_parser("solve", help=EXPERIMENTS["solve"], epilog=_epilog("solve"))
    solve.add_argument("--t", type=int, required=True)
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--seed", type=int, default=7)
    solve.add_argument("--max-steps", type=int, default=400_000)

    search = subparsers.add_parser(
        "search", help=EXPERIMENTS["search"], epilog=_epilog("search")
    )
    search.add_argument(
        "--property",
        default=None,
        help="registered property to falsify (default: k-anti-omega-convergence; "
        "see --list-properties)",
    )
    search.add_argument(
        "--list-properties",
        action="store_true",
        help="list the registered falsifiable properties and exit",
    )
    search.add_argument(
        "--table",
        action="store_true",
        help="run the full E11 sweep (every property, smoke scale) and print its table",
    )
    search.add_argument("--generations", type=int, default=None, help="search generations")
    search.add_argument("--population", type=int, default=None, help="candidates per generation")
    search.add_argument("--horizon", type=int, default=None, help="steps per candidate schedule")
    search.add_argument(
        "--checkpoints",
        type=int,
        default=None,
        help="output samples per candidate that the screen verdict judges",
    )
    search.add_argument("--seed", type=int, default=0, help="root seed of the per-generation RNG streams")
    search.add_argument("--n", type=int, default=None, help="system size Πn (default 4)")
    search.add_argument("--t", type=int, default=None, help="crash budget of the model (default 2)")
    search.add_argument(
        "--k", type=int, default=None, help="detector degree / agreement parameter (default 2)"
    )
    search.add_argument(
        "--fitness",
        default=None,
        choices=("stabilization-delay", "timeliness-bound"),
        help="violation-proximity signal the search maximizes "
        "(default: stabilization-delay)",
    )
    search.add_argument(
        "--near-miss-threshold",
        type=float,
        default=None,
        help="fitness at which a candidate is flagged, confirmed and certified",
    )
    search.add_argument(
        "--certify-bound",
        type=int,
        default=None,
        help="timeliness bound for S^k_{t+1,n} membership (default: 4x the seed bound)",
    )
    search.add_argument("--top", type=int, default=None, help="findings to shrink and report")
    search.add_argument(
        "--smoke",
        action="store_true",
        help="small deterministic configuration (what CI and the E11 table run)",
    )
    search.add_argument("--workers", type=int, default=1, help="worker processes (1 = inline)")
    search.add_argument("--jsonl", type=str, default=None, help="write per-candidate records here")
    search.add_argument(
        "--cache-dir", type=str, default=None, help="content-addressed generation cache"
    )

    distsim = subparsers.add_parser(
        "distsim", help=EXPERIMENTS["distsim"], epilog=_epilog("distsim")
    )
    distsim.add_argument(
        "family",
        nargs="?",
        default=None,
        help="message-passing workload family to run (omit to list them)",
    )
    distsim.add_argument(
        "--table",
        action="store_true",
        help="run the full E12 sweep (sticky failover, every latency arm) and "
        "print its table",
    )
    distsim.add_argument(
        "--n", type=int, default=None, help="number of processes (default: 3)"
    )
    distsim.add_argument("--seed", type=int, default=0)
    distsim.add_argument(
        "--horizon", type=int, default=2_400, help="timeline steps to simulate and reduce"
    )
    distsim.add_argument(
        "--threshold",
        type=int,
        default=8,
        help="timeliness bound at or under which a set counts as timely",
    )
    distsim.add_argument(
        "--p-set",
        type=int,
        nargs="+",
        default=None,
        help="candidate set S for set timeliness (default: every pid but the highest)",
    )
    distsim.add_argument(
        "--q-set",
        type=int,
        nargs="+",
        default=None,
        help="observed set Q whose steps S must straddle (default: the highest pid)",
    )
    distsim.add_argument(
        "--census",
        type=int,
        default=None,
        help="prefix length for the per-process step census table (default: 2000)",
    )
    distsim.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra workload parameter (repeatable); comma-separated values become lists",
    )

    campaign = subparsers.add_parser(
        "campaign", help=EXPERIMENTS["campaign"], epilog=_epilog("campaign")
    )
    campaign.add_argument(
        "name", choices=sorted(EXPERIMENT_REGISTRY), help="campaign to run"
    )
    campaign.add_argument("--workers", type=int, default=1, help="worker processes (1 = inline)")
    _add_override_flags(campaign)
    campaign.add_argument("--jsonl", type=str, default=None, help="write per-run records here")
    campaign.add_argument("--cache-dir", type=str, default=None, help="content-addressed result cache")
    campaign.add_argument("--chunk-size", type=int, default=None, help="runs per dispatched task")
    campaign.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="DB",
        help="run through the durable queue in this SQLite database: enqueue "
        "idempotently, drain with detachable workers, survive crashes; "
        "re-invoking with the same DB resumes instead of restarting",
    )
    campaign.add_argument(
        "--lease-seconds", type=float, default=None, help="queue lease duration (--resume)"
    )
    campaign.add_argument(
        "--max-attempts", type=int, default=None, help="retry budget per run (--resume)"
    )
    campaign.add_argument(
        "--max-respawns", type=int, default=6, help="crashed-worker respawn budget (--resume)"
    )
    chaos = campaign.add_argument_group(
        "fault injection (--resume only; deterministic, seeded)"
    )
    chaos.add_argument("--chaos-seed", type=int, default=0, help="fault-plan sampling seed")
    chaos.add_argument("--chaos-kills", type=int, default=0, help="workers to SIGKILL mid-run")
    chaos.add_argument("--chaos-errors", type=int, default=0, help="runs that raise an injected exception")
    chaos.add_argument("--chaos-stalls", type=int, default=0, help="runs that stall past their lease")
    chaos.add_argument("--chaos-corrupts", type=int, default=0, help="cache entries to truncate after write")
    chaos.add_argument(
        "--chaos-stall-seconds", type=float, default=0.5, help="stall fault duration"
    )

    queue = subparsers.add_parser(
        "queue", help=EXPERIMENTS["queue"], epilog=_epilog("queue")
    )
    queue_sub = queue.add_subparsers(dest="queue_command", required=True)

    q_enqueue = queue_sub.add_parser(
        "enqueue",
        help="expand a named campaign into a durable queue (idempotent)",
        epilog=_epilog("queue"),
    )
    q_enqueue.add_argument(
        "name", choices=sorted(EXPERIMENT_REGISTRY), help="campaign to enqueue"
    )
    q_enqueue.add_argument("--db", type=str, required=True, help="queue database file")
    _add_override_flags(q_enqueue)
    q_enqueue.add_argument(
        "--lease-seconds", type=float, default=None, help="queue lease duration"
    )
    q_enqueue.add_argument(
        "--max-attempts", type=int, default=None, help="retry budget per run"
    )

    q_work = queue_sub.add_parser(
        "work",
        help="drain jobs as one detachable worker (run several in parallel terminals)",
        epilog=_epilog("queue"),
    )
    q_work.add_argument("--db", type=str, required=True, help="queue database file")
    q_work.add_argument("--worker-id", type=str, default=None, help="lease owner name (default: worker-<pid>)")
    q_work.add_argument("--batch", type=int, default=1, help="jobs claimed per lease call")
    q_work.add_argument("--max-runs", type=int, default=None, help="retire after this many runs")
    q_work.add_argument("--cache-dir", type=str, default=None, help="content-addressed result cache")

    q_status = queue_sub.add_parser(
        "status",
        help="job counts, backoff/lease state and the poison quarantine",
        epilog=_epilog("queue"),
    )
    q_status.add_argument("--db", type=str, required=True, help="queue database file")

    q_drain = queue_sub.add_parser(
        "drain",
        help="drain with N monitored worker processes (crashed workers are respawned)",
        epilog=_epilog("queue"),
    )
    q_drain.add_argument("--db", type=str, required=True, help="queue database file")
    q_drain.add_argument("--workers", type=int, default=1, help="worker processes")
    q_drain.add_argument("--cache-dir", type=str, default=None, help="content-addressed result cache")
    q_drain.add_argument(
        "--max-respawns", type=int, default=6, help="crashed-worker respawn budget"
    )

    report = subparsers.add_parser(
        "report", help=EXPERIMENTS["report"], epilog=_epilog("report")
    )
    report.add_argument("--jsonl", type=str, required=True, help="record file to aggregate")

    return parser


def _run_list() -> List[str]:
    lines = ["available experiments:"]
    for command, entry in STANDALONE.items():
        lines.append(f"  {command:<22} {entry.title}")
    for name, description in EXPERIMENTS.items():
        lines.append(f"  {name:<22} {description}")
    lines.append("campaigns (run with `repro campaign <name>`):")
    for name, entry in EXPERIMENT_REGISTRY.items():
        lines.append(f"  {name:<22} {entry.title}")
    return lines


def _run_registered(name: str, **overrides: Any) -> List[str]:
    """Run one registry entry serially and print its table (``repro <exp>``)."""
    params, notes = experiment_params(name, **overrides)
    headers, rows = run_experiment(name, **params)
    return [ascii_table(headers, rows, title=EXPERIMENT_REGISTRY[name].title), *notes]


def _census_table(steps: Sequence[int], n: int, length: int, title: str) -> str:
    """Per-process step counts over the first ``length`` steps, as a table."""
    counts = tally_steps(steps, n)
    rows = [
        [pid, counts[pid], f"{counts[pid] / max(length, 1):.1%}"] for pid in sorted(counts)
    ]
    return ascii_table(["process", f"steps in first {length}", "share"], rows, title=title)


def _parse_scalar(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


#: ``--set`` keys whose values are process sets/sequences even when a single
#: value is given (``--set carriers=1`` must reach the builder as ``[1]``).
_LIST_VALUED_KEYS = frozenset(
    {"p_set", "q_set", "burst_set", "carriers", "crashes", "rotating", "order"}
)


def _parse_assignment(assignment: str) -> "tuple[str, Any]":
    key, separator, raw = assignment.partition("=")
    if not separator or not key or not raw:
        raise ConfigurationError(f"--set expects KEY=VALUE, got {assignment!r}")
    if "," in raw:
        value: Any = [_parse_scalar(part) for part in raw.split(",") if part]
    else:
        value = _parse_scalar(raw)
    if key in _LIST_VALUED_KEYS and not isinstance(value, list):
        value = [value]
    return key, value


def _parse_perturbation(directive: str) -> Dict[str, Any]:
    parts = directive.split(":")
    if not 1 <= len(parts) <= 3 or not parts[0]:
        raise ConfigurationError(f"--perturb expects KIND:RATE[:SEED], got {directive!r}")
    perturbation: Dict[str, Any] = {"kind": parts[0]}
    try:
        if len(parts) > 1:
            perturbation["rate"] = float(parts[1])
        if len(parts) > 2:
            perturbation["seed"] = int(parts[2])
    except ValueError:
        raise ConfigurationError(
            f"--perturb expects a numeric RATE and integer SEED, got {directive!r}"
        ) from None
    return perturbation


def _run_scenarios(args: argparse.Namespace) -> List[str]:
    if args.family is None:
        lines = ["composable scenario families (run with `repro scenarios <family>`):"]
        for name, description in family_descriptions().items():
            lines.append(f"  {name:<24} {description}")
        lines.append(
            "combinators (library API): concat, interleave, perturb, with_crashes"
        )
        return lines

    from .analysis.metrics import run_detector_experiment

    params: Dict[str, Any] = {"schedule": args.family, "n": args.n, "seed": args.seed}
    for assignment in args.assignments:
        key, value = _parse_assignment(assignment)
        params[key] = value
    if args.perturb:
        params["perturbations"] = [_parse_perturbation(p) for p in args.perturb]

    generator = build_scenario_generator(params)
    guarantee = generator.guarantee()
    lines = [
        f"scenario:  {generator.description}",
        f"guarantee: {guarantee.describe() if guarantee is not None else 'none (by construction)'}",
    ]

    census_length = min(args.census, args.horizon)
    prefix = generator.generate(census_length)
    lines.append(
        _census_table(prefix.steps, generator.n, census_length, "schedule census")
    )

    report = run_detector_experiment(
        generator, t=args.t, k=args.k, horizon=args.horizon, fast=True
    )
    lines.append(
        ascii_table(
            [
                "n",
                "t",
                "k",
                "satisfied",
                "stabilization step",
                "winner changes",
                "last winner change",
                "winner set",
                "contains correct",
            ],
            [
                [
                    report.n,
                    report.t,
                    report.k,
                    report.satisfied,
                    report.stabilization_step,
                    report.winner_changes,
                    report.last_winner_change,
                    report.converged_winner_set,
                    report.winner_contains_correct,
                ]
            ],
            title=f"k-anti-Ω on this scenario (horizon {args.horizon})",
        )
    )
    return lines


def _run_distsim(args: argparse.Namespace) -> List[str]:
    from .distsim import (
        available_latency_models,
        dist_family_names,
        run_timeline,
        timeliness_report,
    )
    from .distsim.workloads import DIST_FAMILIES

    if args.table:
        # The table is the fixed E12 sweep: single-workload flags would be
        # silently meaningless, so reject them.
        ignored = [
            flag
            for flag, value in (
                ("a family name", args.family),
                ("--n", args.n),
                ("--p-set", args.p_set),
                ("--q-set", args.q_set),
                ("--census", args.census),
                ("--set", args.assignments or None),
            )
            if value is not None
        ]
        if ignored:
            raise ConfigurationError(
                f"--table runs the fixed E12 sweep and does not accept {', '.join(ignored)}; "
                "drop --table to run a single workload (--horizon, --threshold and "
                "--seed work with both)"
            )
        return _run_registered(
            "e12", horizon=args.horizon, threshold=args.threshold, seed=args.seed
        )

    if args.family is None:
        lines = ["message-passing workload families (run with `repro distsim <family>`):"]
        for name in dist_family_names():
            lines.append(f"  {name:<24} {DIST_FAMILIES[name][1]}")
        lines.append(
            "latency models (--set latency=<name>): "
            + ", ".join(available_latency_models())
        )
        return lines

    params: Dict[str, Any] = {
        "schedule": args.family,
        "n": args.n if args.n is not None else 3,
        "seed": args.seed,
    }
    for assignment in args.assignments:
        key, value = _parse_assignment(assignment)
        params[key] = value
    if args.horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {args.horizon}")
    generator = build_scenario_generator(params)
    p_set = args.p_set if args.p_set else list(range(1, generator.n))
    q_set = args.q_set if args.q_set else [generator.n]
    if not p_set:
        raise ConfigurationError(
            f"the default P = 1..n-1 is empty for n = {generator.n}; "
            "use --n >= 2 or name P with --p-set"
        )
    timeline = run_timeline(generator, args.horizon)

    lines = [f"workload:  {generator.description}"]
    census_length = min(args.census if args.census is not None else 2_000, len(timeline))
    lines.append(
        _census_table(
            timeline.pids[:census_length], timeline.n, census_length, "reduced schedule census"
        )
    )
    stats = timeline.stats
    lines.append(
        ascii_table(
            ["sent", "delivered", "lost", "partitioned", "to down", "max lat", "mean lat"],
            [
                [
                    stats.sent,
                    stats.delivered,
                    stats.dropped_loss,
                    stats.dropped_partition,
                    stats.dropped_down,
                    stats.max_latency,
                    f"{stats.mean_latency:.2f}",
                ]
            ],
            title="message census",
        )
    )

    report = timeliness_report(timeline, p_set, q_set, threshold=args.threshold)
    lines.extend(report.describe_lines())
    return lines


def _run_search(args: argparse.Namespace) -> List[str]:
    from .search import (
        SearchConfig,
        available_properties,
        property_descriptions,
        run_search,
        search_report_lines,
    )

    if args.list_properties:
        lines = ["falsifiable properties (run with `repro search --property <name>`):"]
        for name, description in property_descriptions().items():
            lines.append(f"  {name:<28} {description}")
        return lines

    engine_kwargs: Dict[str, Any] = {"workers": args.workers}
    if args.cache_dir:
        engine_kwargs["cache"] = ResultCache(args.cache_dir)

    if args.table:
        # The table is the fixed E11 sweep (every property at smoke scale):
        # single-search flags would be silently meaningless, so reject them.
        ignored = [
            flag
            for flag, value in (
                ("--property", args.property),
                ("--population", args.population),
                ("--horizon", args.horizon),
                ("--checkpoints", args.checkpoints),
                ("--n", args.n),
                ("--t", args.t),
                ("--k", args.k),
                ("--fitness", args.fitness),
                ("--near-miss-threshold", args.near_miss_threshold),
                ("--certify-bound", args.certify_bound),
                ("--top", args.top),
                ("--jsonl", args.jsonl),
            )
            if value is not None
        ] + (["--smoke"] if args.smoke else [])
        if ignored:
            raise ConfigurationError(
                f"--table runs the fixed E11 sweep and does not accept {', '.join(ignored)}; "
                "drop --table to configure a single search (--generations, --seed, "
                "--workers and --cache-dir work with both)"
            )
        from .analysis.experiment import falsification_experiment

        with CampaignEngine(**engine_kwargs) as engine:
            headers, rows = falsification_experiment(
                generations=args.generations if args.generations is not None else 5,
                seed=args.seed,
                engine=engine,
            )
        return [ascii_table(headers, rows, title=EXPERIMENTS["search"])]

    chosen_property = args.property or "k-anti-omega-convergence"
    if chosen_property not in available_properties():
        raise ConfigurationError(
            f"unknown property {chosen_property!r}; registered: {available_properties()}"
        )

    overrides: Dict[str, Any] = {
        "seed": args.seed,
        "n": args.n if args.n is not None else 4,
        "t": args.t if args.t is not None else 2,
        "k": args.k if args.k is not None else 2,
        "fitness": args.fitness or "stabilization-delay",
    }
    for key in ("generations", "population", "horizon", "checkpoints", "top"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.near_miss_threshold is not None:
        overrides["near_miss_threshold"] = args.near_miss_threshold
    if args.certify_bound is not None:
        overrides["certify_bound"] = args.certify_bound
    if args.smoke:
        config = SearchConfig.smoke_config(chosen_property, **overrides)
    else:
        config = SearchConfig(property=chosen_property, **overrides)

    with CampaignEngine(**engine_kwargs) as engine:
        report = run_search(config, engine=engine, jsonl_path=args.jsonl)
    return [*search_report_lines(report), _engine_footer(args)]


def _engine_footer(args: argparse.Namespace) -> str:
    """The ``workers=…, records -> …, cache -> …`` line after an engine run."""
    return (
        f"workers={args.workers}"
        + (f", records -> {args.jsonl}" if args.jsonl else "")
        + (f", cache -> {args.cache_dir}" if args.cache_dir else "")
    )


def _chaos_plan_factory(args: argparse.Namespace):
    """The --chaos-* flags as a keys -> FaultPlan callable (None when unused)."""
    counts = {
        "kills": args.chaos_kills,
        "errors": args.chaos_errors,
        "stalls": args.chaos_stalls,
        "corrupts": args.chaos_corrupts,
    }
    if not any(counts.values()):
        return None

    def factory(keys: List[str]) -> FaultPlan:
        return FaultPlan.sample(
            keys,
            seed=args.chaos_seed,
            stall_seconds=args.chaos_stall_seconds,
            **counts,
        )

    return factory


def _campaign_params(args: argparse.Namespace) -> "tuple[Dict[str, Any], List[str]]":
    """The ``campaign``/``queue enqueue`` override flags through the registry's one rule."""
    return experiment_params(
        args.name, seed=args.seed, horizon=args.horizon, k=args.k, seeds=args.seeds
    )


def _run_campaign(args: argparse.Namespace) -> List[str]:
    params, notes = _campaign_params(args)
    if args.resume is not None:
        # Durable path: jobs live in the SQLite queue, workers are detachable
        # processes, and a re-invocation with the same DB resumes the drain.
        engine = DurableCampaignEngine(
            args.resume,
            workers=args.workers,
            cache=ResultCache(args.cache_dir) if args.cache_dir else None,
            jsonl_path=args.jsonl,
            fault_plan=_chaos_plan_factory(args),
            max_respawns=args.max_respawns,
            lease_seconds=args.lease_seconds,
            max_attempts=args.max_attempts,
        )
        lines = _run_campaign_with_engine(args, engine, params, notes)
        lines.append(engine.enqueue_report.summary())
        drain = engine.drain_report
        lines.append(
            f"drained {args.resume} with {drain.workers} worker(s) in "
            f"{drain.elapsed:.2f}s: {drain.deaths} death(s), "
            f"{drain.respawns} respawn(s)"
        )
        return lines
    if any((args.chaos_kills, args.chaos_errors, args.chaos_stalls, args.chaos_corrupts)):
        raise ConfigurationError("--chaos-* flags require --resume <db> (the durable queue)")
    # The engine's worker pool is persistent; a CLI invocation runs exactly
    # one campaign, so tear it down on the way out.
    with CampaignEngine(
        workers=args.workers,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        chunk_size=args.chunk_size,
        jsonl_path=args.jsonl,
    ) as engine:
        return _run_campaign_with_engine(args, engine, params, notes)


def _require_queue_db(path: str) -> str:
    """Reject commands aimed at a queue database that does not exist yet."""
    if not Path(path).is_file():
        raise ConfigurationError(
            f"no queue database at {path!r}; create one with `repro queue enqueue`"
        )
    return path


def _run_queue(args: argparse.Namespace) -> List[str]:
    if args.queue_command == "enqueue":
        params, notes = _campaign_params(args)
        spec = EXPERIMENT_REGISTRY[args.name].build(**params)
        with JobQueue(
            args.db, lease_seconds=args.lease_seconds, max_attempts=args.max_attempts
        ) as queue:
            report = queue.enqueue(spec)
            return [report.summary(), *queue.status().lines(), *notes]
    if args.queue_command == "work":
        with JobQueue(_require_queue_db(args.db)) as queue:
            worker = QueueWorker(
                queue,
                args.worker_id,
                cache=ResultCache(args.cache_dir) if args.cache_dir else None,
                batch=args.batch,
                max_runs=args.max_runs,
            )
            report = worker.run()
            return [
                f"worker {report.worker_id}: leased {report.leased}, "
                f"completed {report.completed}, failed {report.failed}, "
                f"lost leases {report.lost_leases}",
                *queue.status().lines(),
            ]
    if args.queue_command == "status":
        with JobQueue(_require_queue_db(args.db)) as queue:
            return queue.status().lines()
    if args.queue_command == "drain":
        drain = drain_queue(
            _require_queue_db(args.db),
            workers=args.workers,
            cache_dir=args.cache_dir,
            max_respawns=args.max_respawns,
        )
        with JobQueue(args.db) as queue:
            return [
                f"drained {args.db} with {drain.workers} worker(s) in "
                f"{drain.elapsed:.2f}s: {drain.deaths} death(s), "
                f"{drain.respawns} respawn(s)",
                *queue.status().lines(),
            ]
    raise SystemExit(f"unknown queue command {args.queue_command!r}")  # pragma: no cover


def _run_campaign_with_engine(
    args: argparse.Namespace,
    engine: CampaignEngine,
    params: Dict[str, Any],
    notes: List[str],
) -> List[str]:
    entry = EXPERIMENT_REGISTRY[args.name]
    result = engine.run(entry.build(**params))
    headers, rows = entry.rows(result)
    # A generic record table is followed by the engine's own run summary.
    tail = result.summary() if entry.columns is None else _engine_footer(args)
    return [ascii_table(headers, rows, title=entry.title), *notes, tail]


def _run_report(jsonl: str) -> List[str]:
    try:
        records = read_jsonl(jsonl)
    except OSError as error:
        raise ConfigurationError(f"cannot read {jsonl}: {error.strerror}") from error
    if not records:
        return [f"no records in {jsonl}"]
    param_keys, payload_keys = record_columns(records)
    headers = ["index", "kind"] + param_keys + payload_keys + ["cached"]
    rows = [
        [record.index, record.kind]
        + [record.params.get(key) for key in param_keys]
        + [record.payload.get(key) for key in payload_keys]
        + [record.cached]
        for record in records
    ]
    return [ascii_table(headers, rows, title=f"records from {jsonl}")]


def _run_map(
    t: int, k: int, n: int, screen: bool = False, horizon: int = 2_400, seed: int = 11
) -> List[str]:
    problem = AgreementInstance(t=t, k=k, n=n)
    grids = solvability_map_experiment(problems=((t, k, n),))
    grid = grids[problem.describe()]
    lines = [f"Theorem 27 map for {problem.describe()} (S = solvable)"]
    lines.append(render_solvability_grid(grid, n=n))
    lines.append(f"matching system: {matching_system(problem).describe()}")
    lines.append(
        "frontier: " + ", ".join(coords.describe() for coords in solvable_frontier(problem))
    )
    if screen:
        from .analysis.experiment import screened_solvability_grid_experiment
        from .search.properties import last_screen_plan

        headers, rows = screened_solvability_grid_experiment(
            t=t, k=k, n=n, horizon=horizon, seed=seed
        )
        lines.append(
            ascii_table(headers, rows, title="screened grid (one batched screen)")
        )
        plan = last_screen_plan()
        lines.append(f"screen lane: {plan.get('lane')} ({plan.get('batch')} cells batched)")
    return lines


def _run_solve(t: int, k: int, n: int, seed: int, max_steps: int) -> List[str]:
    problem = AgreementInstance(t=t, k=k, n=n)
    if k <= t:
        p_set = set(range(1, k + 1))
        q_set = set(range(1, t + 2))
    else:
        p_set = {1}
        q_set = set(range(1, n + 1))
    generator = SetTimelyGenerator(n=n, p_set=p_set, q_set=q_set, bound=3, seed=seed)
    report = solve_agreement(problem, distinct_inputs(n), generator, max_steps=max_steps)
    lines = [
        f"problem:   {problem.describe()}",
        f"system:    {matching_system(problem).describe()}",
        f"schedule:  {generator.description}",
        f"protocol:  {report.protocol}",
        f"decisions: {report.decisions}",
        f"satisfied: {report.verdict.satisfied} "
        f"(distinct decisions: {len(report.verdict.distinct_decisions)}, k={k})",
        f"steps executed: {report.steps_executed} of {max_steps} budgeted",
    ]
    if report.detector_verdict is not None:
        lines.append(
            f"detector:  satisfied={report.detector_verdict.satisfied}, "
            f"stabilization step={report.detector_verdict.stabilization_step}"
        )
    return lines


def run(argv: Optional[Sequence[str]] = None) -> List[str]:
    """Execute the CLI and return the lines it would print (also used by tests).

    Configuration mistakes (an unknown family or property name,
    an unreadable records file, ...) propagate as
    :class:`~repro.errors.ConfigurationError`, so programmatic callers can
    catch them; the console entry point (:func:`main`) converts them into a
    clean one-line exit naming the valid choices.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> List[str]:
    if args.command in (None, "list"):
        return _run_list()
    entry = STANDALONE.get(args.command)
    if entry is not None:
        return _run_registered(
            entry.name, **{flag: getattr(args, flag) for flag in entry.flags}
        )
    if args.command == "map":
        return _run_map(
            args.t, args.k, args.n, screen=args.screen, horizon=args.horizon, seed=args.seed
        )
    if args.command == "separations":
        headers, rows = separation_statements_experiment()
        return [ascii_table(headers, rows, title=EXPERIMENTS["separations"])]
    if args.command == "scenarios":
        return _run_scenarios(args)
    if args.command == "distsim":
        return _run_distsim(args)
    if args.command == "search":
        return _run_search(args)
    if args.command == "solve":
        return _run_solve(args.t, args.k, args.n, args.seed, args.max_steps)
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "queue":
        return _run_queue(args)
    if args.command == "report":
        return _run_report(args.jsonl)
    raise SystemExit(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point.

    Library-level :class:`~repro.errors.ConfigurationError` (an unknown
    family or property name, an unreadable records file, ...)
    becomes a clean one-line ``SystemExit`` listing the valid choices, not an
    uncaught traceback.
    """
    try:
        lines = run(argv)
    except ConfigurationError as error:
        raise SystemExit(f"repro: {error}") from error
    for line in lines:
        print(line)
    return 0
