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
regenerates.  Each subcommand is one :data:`COMMANDS` entry.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from .agreement.problem import distinct_inputs
from .agreement.runner import solve_agreement
from .analysis.experiment import (
    EXPERIMENT_REGISTRY,
    Experiment,
    experiment_params,
    falsification_experiment,
    run_experiment,
    screened_solvability_grid_experiment,
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
from .campaign.queue import DrainReport
from .campaign.records import record_columns
from .core.schedule import tally_steps
from .core.solvability import matching_system, solvable_frontier
from .errors import ConfigurationError
from .scenarios import build_generator as build_scenario_generator
from .scenarios import family_descriptions
from .schedules.set_timely import SetTimelyGenerator
from .types import AgreementInstance

_T = TypeVar("_T")


@dataclass(frozen=True)
class Command:
    """One subcommand: ``--help`` line, EXPERIMENTS.md section, options and handler."""

    help: str
    section: str
    run: Callable[[argparse.Namespace], List[str]]
    add_arguments: Callable[[argparse.ArgumentParser], None] = lambda parser: None


def _add_commands(subparsers: "argparse._SubParsersAction", commands: Dict[str, Command]) -> None:
    """One subparser per table entry; its ``--help`` epilog names its EXPERIMENTS.md section."""
    for name, command in commands.items():
        epilog = f"Documented in EXPERIMENTS.md, section: {command.section}"
        command.add_arguments(subparsers.add_parser(name, help=command.help, epilog=epilog))


class _VersionAction(argparse.Action):
    """``--version``: print ``repro <version>`` and exit.

    The version is read from :data:`repro.__version__` only when the flag is
    given, so building the parser does not load the package metadata.
    """

    def __init__(self, option_strings: Sequence[str], dest: str) -> None:
        super().__init__(
            option_strings=option_strings,
            dest=dest,
            default=argparse.SUPPRESS,
            nargs=0,
            help="show program's version number and exit",
        )

    def __call__(self, parser: argparse.ArgumentParser, *_: Any) -> None:
        from . import __version__

        sys.stdout.write(f"{parser.prog} {__version__}\n")
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Partial Synchrony Based on Set Timeliness' (PODC 2009)",
    )
    parser.add_argument("--version", action=_VersionAction)
    _add_commands(parser.add_subparsers(dest="command"), COMMANDS)
    return parser


def _cache(args: argparse.Namespace) -> Optional[ResultCache]:
    """The ``--cache-dir`` result cache, or ``None`` when the flag is absent."""
    return ResultCache(args.cache_dir) if args.cache_dir else None


def _check_before_cache(args: argparse.Namespace, check: Callable[[], _T]) -> _T:
    """``check()``, run before ``--cache-dir`` is created.

    A command ``check`` rejects leaves no cache directory behind.  An
    existing ``--cache-dir`` that is not a directory is still the error
    reported; opening an existing path creates nothing.
    """
    try:
        return check()
    except ConfigurationError:
        if args.cache_dir and Path(args.cache_dir).exists():
            _cache(args)
        raise


def _reject_table_conflicts(
    args: argparse.Namespace,
    add_arguments: Callable[[argparse.ArgumentParser], None],
    sweep: str,
    single_run: str,
    allowed: Sequence[str],
) -> None:
    """Reject the flags a ``--table`` run would silently ignore.

    Those are the flags set away from their parser default, bar ``--table``
    and the ``allowed`` ones the fixed sweep honours too.  They are named in
    ``--help`` order, a positional as ``a <dest> name``.
    """
    probe = argparse.ArgumentParser(add_help=False)
    add_arguments(probe)
    set_flags = [
        action.option_strings[0] if action.option_strings else f"a {action.dest} name"
        for action in probe._actions
        if getattr(args, action.dest) != action.default
    ]
    ignored = [flag for flag in set_flags if flag not in ("--table", *allowed)]
    if ignored:
        *first, last = allowed
        raise ConfigurationError(
            f"--table runs the fixed {sweep} sweep and does not accept {', '.join(ignored)}; "
            f"drop --table to {single_run} ({', '.join(first)} and {last} work with both)"
        )


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


def _run_list(args: argparse.Namespace) -> List[str]:
    lines = ["available experiments:"]
    for name, command in COMMANDS.items():
        if name != "list":
            lines.append(f"  {name:<22} {command.help}")
    lines.append("campaigns (run with `repro campaign <name>`):")
    for name, entry in EXPERIMENT_REGISTRY.items():
        lines.append(f"  {name:<22} {entry.title}")
    return lines


def _run_registered(name: str, **overrides: Any) -> List[str]:
    """Run one registry entry serially and print its table (``repro <exp>``)."""
    params, notes = experiment_params(name, **overrides)
    headers, rows = run_experiment(name, **params)
    return [ascii_table(headers, rows, title=EXPERIMENT_REGISTRY[name].title), *notes]


def _standalone(entry: Experiment) -> Command:
    """A registry entry's own subcommand (``repro figure1``, ...): its flags, then its table."""

    def add_arguments(parser: argparse.ArgumentParser) -> None:
        for flag, default in entry.flags.items():
            if isinstance(default, tuple):
                parser.add_argument(f"--{flag}", type=int, nargs="+", default=list(default))
            else:
                parser.add_argument(f"--{flag}", type=int, default=default)

    def run(args: argparse.Namespace) -> List[str]:
        return _run_registered(entry.name, **{flag: getattr(args, flag) for flag in entry.flags})

    return Command(entry.title, entry.section, run, add_arguments)


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


def _map_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument(
        "--screen",
        action="store_true",
        help="also screen one set-timely prefix per grid cell (all cells batched "
        "through one screen_generation call) and print the "
        "empirical convergence evidence next to the Theorem 27 verdicts",
    )
    parser.add_argument(
        "--horizon", type=int, default=2_400, help="base horizon for --screen prefixes"
    )
    parser.add_argument("--seed", type=int, default=11, help="seed for --screen prefixes")


def _run_map(args: argparse.Namespace) -> List[str]:
    problem = AgreementInstance(t=args.t, k=args.k, n=args.n)
    grids = solvability_map_experiment(problems=((args.t, args.k, args.n),))
    grid = grids[problem.describe()]
    lines = [f"Theorem 27 map for {problem.describe()} (S = solvable)"]
    lines.append(render_solvability_grid(grid, n=args.n))
    lines.append(f"matching system: {matching_system(problem).describe()}")
    lines.append(
        "frontier: " + ", ".join(coords.describe() for coords in solvable_frontier(problem))
    )
    if args.screen:
        from .search.properties import last_screen_plan

        headers, rows = screened_solvability_grid_experiment(
            t=args.t, k=args.k, n=args.n, horizon=args.horizon, seed=args.seed
        )
        lines.append(
            ascii_table(headers, rows, title="screened grid (one batched screen)")
        )
        plan = last_screen_plan()
        lines.append(f"screen lane: {plan.get('lane')} ({plan.get('batch')} cells batched)")
    return lines


def _run_separations(args: argparse.Namespace) -> List[str]:
    headers, rows = separation_statements_experiment()
    return [ascii_table(headers, rows, title=COMMANDS["separations"].help)]


def _solve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-steps", type=int, default=400_000)


def _run_solve(args: argparse.Namespace) -> List[str]:
    problem = AgreementInstance(t=args.t, k=args.k, n=args.n)
    if args.k <= args.t:
        p_set = set(range(1, args.k + 1))
        q_set = set(range(1, args.t + 2))
    else:
        p_set = {1}
        q_set = set(range(1, args.n + 1))
    generator = SetTimelyGenerator(n=args.n, p_set=p_set, q_set=q_set, bound=3, seed=args.seed)
    report = solve_agreement(problem, distinct_inputs(args.n), generator, max_steps=args.max_steps)
    lines = [
        f"problem:   {problem.describe()}",
        f"system:    {matching_system(problem).describe()}",
        f"schedule:  {generator.description}",
        f"protocol:  {report.protocol}",
        f"decisions: {report.decisions}",
        f"satisfied: {report.verdict.satisfied} "
        f"(distinct decisions: {len(report.verdict.distinct_decisions)}, k={args.k})",
        f"steps executed: {report.steps_executed} of {args.max_steps} budgeted",
    ]
    if report.detector_verdict is not None:
        lines.append(
            f"detector:  satisfied={report.detector_verdict.satisfied}, "
            f"stabilization step={report.detector_verdict.stabilization_step}"
        )
    return lines


def _scenarios_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "family", nargs="?", default=None, help="scenario family to run (omit to list them)"
    )
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--t", type=int, default=2)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--horizon", type=int, default=40_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--census",
        type=int,
        default=2_000,
        help="prefix length for the per-process step census table",
    )
    parser.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra family parameter (repeatable); comma-separated values become lists",
    )
    parser.add_argument(
        "--perturb",
        action="append",
        default=[],
        metavar="KIND:RATE[:SEED]",
        help="wrap the scenario in a perturbation (noise or stutter; repeatable)",
    )


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
    params.update(_parse_assignment(assignment) for assignment in args.assignments)
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


def _search_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--property",
        default=None,
        help="registered property to falsify (default: k-anti-omega-convergence; "
        "see --list-properties)",
    )
    parser.add_argument(
        "--list-properties",
        action="store_true",
        help="list the registered falsifiable properties and exit",
    )
    parser.add_argument(
        "--table",
        action="store_true",
        help="run the full E11 sweep (every property, smoke scale) and print its table",
    )
    parser.add_argument("--generations", type=int, default=None, help="search generations")
    parser.add_argument("--population", type=int, default=None, help="candidates per generation")
    parser.add_argument("--horizon", type=int, default=None, help="steps per candidate schedule")
    parser.add_argument(
        "--checkpoints",
        type=int,
        default=None,
        help="output samples per candidate that the screen verdict judges",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed of the per-generation RNG streams")
    parser.add_argument("--n", type=int, default=None, help="system size Πn (default 4)")
    parser.add_argument("--t", type=int, default=None, help="crash budget of the model (default 2)")
    parser.add_argument(
        "--k", type=int, default=None, help="detector degree / agreement parameter (default 2)"
    )
    parser.add_argument(
        "--fitness",
        default=None,
        choices=("stabilization-delay", "timeliness-bound"),
        help="violation-proximity signal the search maximizes "
        "(default: stabilization-delay)",
    )
    parser.add_argument(
        "--near-miss-threshold",
        type=float,
        default=None,
        help="fitness at which a candidate is flagged, confirmed and certified",
    )
    parser.add_argument(
        "--certify-bound",
        type=int,
        default=None,
        help="timeliness bound for S^k_{t+1,n} membership (default: 4x the seed bound)",
    )
    parser.add_argument("--top", type=int, default=None, help="findings to shrink and report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small deterministic configuration (what CI and the E11 table run)",
    )
    parser.add_argument("--workers", type=int, default=1, help="worker processes (1 = inline)")
    parser.add_argument("--jsonl", type=str, default=None, help="write per-candidate records here")
    parser.add_argument(
        "--cache-dir", type=str, default=None, help="content-addressed generation cache"
    )


def _run_search(args: argparse.Namespace) -> List[str]:
    from .search import (
        SearchConfig,
        property_descriptions,
        run_search,
        search_report_lines,
    )

    if args.list_properties:
        lines = ["falsifiable properties (run with `repro search --property <name>`):"]
        for name, description in property_descriptions().items():
            lines.append(f"  {name:<28} {description}")
        return lines

    if args.table:
        # The table is the fixed E11 sweep (every property at smoke scale):
        # single-search flags would be silently meaningless, so reject them.
        _check_before_cache(
            args,
            lambda: _reject_table_conflicts(
                args, _search_arguments, "E11", "configure a single search",
                ("--generations", "--seed", "--workers", "--cache-dir"),
            ),
        )
        with CampaignEngine(workers=args.workers, cache=_cache(args)) as engine:
            headers, rows = falsification_experiment(
                generations=args.generations if args.generations is not None else 5,
                seed=args.seed,
                engine=engine,
            )
        return [ascii_table(headers, rows, title=COMMANDS["search"].help)]

    chosen_property = args.property or "k-anti-omega-convergence"
    # An unset flag keeps SearchConfig's (or smoke_config's) default.
    overrides: Dict[str, Any] = {"seed": args.seed}
    for key in (
        "generations", "population", "horizon", "checkpoints", "n", "t", "k",
        "fitness", "near_miss_threshold", "certify_bound", "top",
    ):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value

    def configure() -> SearchConfig:
        # SearchConfig rejects an unknown property and out-of-range values.
        if args.smoke:
            return SearchConfig.smoke_config(chosen_property, **overrides)
        return SearchConfig(property=chosen_property, **overrides)

    config = _check_before_cache(args, configure)

    with CampaignEngine(workers=args.workers, cache=_cache(args)) as engine:
        report = run_search(config, engine=engine, jsonl_path=args.jsonl)
    return [*search_report_lines(report), _engine_footer(args, engine)]


def _engine_footer(args: argparse.Namespace, engine: CampaignEngine) -> str:
    """The ``workers=…, records -> …, cache -> …`` line; the count is the engine's own."""
    return (
        f"workers={engine.workers}"
        + (f", records -> {args.jsonl}" if args.jsonl else "")
        + (f", cache -> {args.cache_dir}" if args.cache_dir else "")
    )


def _distsim_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "family",
        nargs="?",
        default=None,
        help="message-passing workload family to run (omit to list them)",
    )
    parser.add_argument(
        "--table",
        action="store_true",
        help="run the full E12 sweep (sticky failover, every latency arm) and "
        "print its table",
    )
    parser.add_argument(
        "--n", type=int, default=None, help="number of processes (default: 3)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--horizon", type=int, default=2_400, help="timeline steps to simulate and reduce"
    )
    parser.add_argument(
        "--threshold",
        type=int,
        default=8,
        help="timeliness bound at or under which a set counts as timely",
    )
    parser.add_argument(
        "--p-set",
        type=int,
        nargs="+",
        default=None,
        help="candidate set S for set timeliness (default: every pid but the highest)",
    )
    parser.add_argument(
        "--q-set",
        type=int,
        nargs="+",
        default=None,
        help="observed set Q whose steps S must straddle (default: the highest pid)",
    )
    parser.add_argument(
        "--census",
        type=int,
        default=None,
        help="prefix length for the per-process step census table (default: 2000)",
    )
    parser.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra workload parameter (repeatable); comma-separated values become lists",
    )


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
        _reject_table_conflicts(
            args, _distsim_arguments, "E12", "run a single workload",
            ("--horizon", "--threshold", "--seed"),
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
    params.update(_parse_assignment(assignment) for assignment in args.assignments)
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


def _drain_line(db: str, drain: DrainReport) -> str:
    """The one-line outcome of draining a queue database."""
    return (
        f"drained {db} with {drain.workers} worker(s) in {drain.elapsed:.2f}s: "
        f"{drain.deaths} death(s), {drain.respawns} respawn(s)"
    )


def _campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "name", choices=sorted(EXPERIMENT_REGISTRY), help="campaign to run"
    )
    parser.add_argument("--workers", type=int, default=1, help="worker processes (1 = inline)")
    _add_override_flags(parser)
    parser.add_argument("--jsonl", type=str, default=None, help="write per-run records here")
    parser.add_argument("--cache-dir", type=str, default=None, help="content-addressed result cache")
    parser.add_argument("--chunk-size", type=int, default=None, help="runs per dispatched task")
    parser.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="DB",
        help="run through the durable queue in this SQLite database: enqueue "
        "idempotently, drain with detachable workers, survive crashes; "
        "re-invoking with the same DB resumes instead of restarting",
    )
    parser.add_argument(
        "--lease-seconds", type=float, default=None, help="queue lease duration (--resume)"
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, help="retry budget per run (--resume)"
    )
    parser.add_argument(
        "--max-respawns", type=int, default=6, help="crashed-worker respawn budget (--resume)"
    )
    chaos = parser.add_argument_group(
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


def _run_campaign(args: argparse.Namespace) -> List[str]:
    params, notes = _campaign_params(args)
    fault_plan = _chaos_plan_factory(args)
    if args.resume is None and fault_plan is not None:
        raise ConfigurationError("--chaos-* flags require --resume <db> (the durable queue)")

    def build() -> CampaignEngine:
        # The engine checks its arguments here, before --cache-dir is created.
        if args.resume is not None:
            # Durable path: jobs live in the SQLite queue, workers are
            # detachable processes, and a re-invocation with the same DB
            # resumes the drain.
            return DurableCampaignEngine(
                args.resume,
                workers=args.workers,
                jsonl_path=args.jsonl,
                fault_plan=fault_plan,
                max_respawns=args.max_respawns,
                lease_seconds=args.lease_seconds,
                max_attempts=args.max_attempts,
            )
        return CampaignEngine(
            workers=args.workers, chunk_size=args.chunk_size, jsonl_path=args.jsonl
        )

    engine = _check_before_cache(args, build)
    engine.cache = _cache(args)
    # The engine's worker pool is persistent; a CLI invocation runs exactly
    # one campaign, so tear it down on the way out.
    with engine:
        lines = _run_campaign_with_engine(args, engine, params, notes)
    if args.resume is not None:
        lines.append(engine.enqueue_report.summary())
        lines.append(_drain_line(args.resume, engine.drain_report))
    return lines


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
    tail = result.summary() if entry.columns is None else _engine_footer(args, engine)
    return [ascii_table(headers, rows, title=entry.title), *notes, tail]


def _require_queue_db(path: str) -> str:
    """Reject commands aimed at a queue database that does not exist yet."""
    if not Path(path).is_file():
        raise ConfigurationError(
            f"no queue database at {path!r}; create one with `repro queue enqueue`"
        )
    return path


def _enqueue_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "name", choices=sorted(EXPERIMENT_REGISTRY), help="campaign to enqueue"
    )
    parser.add_argument("--db", type=str, required=True, help="queue database file")
    _add_override_flags(parser)
    parser.add_argument(
        "--lease-seconds", type=float, default=None, help="queue lease duration"
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, help="retry budget per run"
    )


def _run_enqueue(args: argparse.Namespace) -> List[str]:
    params, notes = _campaign_params(args)
    spec = EXPERIMENT_REGISTRY[args.name].build(**params)
    with JobQueue(
        args.db, lease_seconds=args.lease_seconds, max_attempts=args.max_attempts
    ) as queue:
        report = queue.enqueue(spec)
        return [report.summary(), *queue.status().lines(), *notes]


def _work_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", type=str, required=True, help="queue database file")
    parser.add_argument("--worker-id", type=str, default=None, help="lease owner name (default: worker-<pid>)")
    parser.add_argument("--batch", type=int, default=1, help="jobs claimed per lease call")
    parser.add_argument("--max-runs", type=int, default=None, help="retire after this many runs")
    parser.add_argument("--cache-dir", type=str, default=None, help="content-addressed result cache")


def _run_work(args: argparse.Namespace) -> List[str]:
    with JobQueue(_require_queue_db(args.db)) as queue:
        worker = QueueWorker(
            queue,
            args.worker_id,
            cache=_cache(args),
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


def _status_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", type=str, required=True, help="queue database file")


def _run_status(args: argparse.Namespace) -> List[str]:
    with JobQueue(_require_queue_db(args.db)) as queue:
        return queue.status().lines()


def _drain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", type=str, required=True, help="queue database file")
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    parser.add_argument("--cache-dir", type=str, default=None, help="content-addressed result cache")
    parser.add_argument(
        "--max-respawns", type=int, default=6, help="crashed-worker respawn budget"
    )


def _run_drain(args: argparse.Namespace) -> List[str]:
    drain = drain_queue(
        _require_queue_db(args.db),
        workers=args.workers,
        cache_dir=args.cache_dir,
        max_respawns=args.max_respawns,
    )
    with JobQueue(args.db) as queue:
        return [_drain_line(args.db, drain), *queue.status().lines()]


_QUEUE_SECTION = "Durable queue — crash-safe campaigns"

#: The ``repro queue`` subcommands, one entry each.
_QUEUE_COMMANDS: Dict[str, Command] = {
    "enqueue": Command(
        "expand a named campaign into a durable queue (idempotent)",
        _QUEUE_SECTION, _run_enqueue, _enqueue_arguments,
    ),
    "work": Command(
        "drain jobs as one detachable worker (run several in parallel terminals)",
        _QUEUE_SECTION, _run_work, _work_arguments,
    ),
    "status": Command(
        "job counts, backoff/lease state and the poison quarantine",
        _QUEUE_SECTION, _run_status, _status_arguments,
    ),
    "drain": Command(
        "drain with N monitored worker processes (crashed workers are respawned)",
        _QUEUE_SECTION, _run_drain, _drain_arguments,
    ),
}


def _queue_arguments(parser: argparse.ArgumentParser) -> None:
    _add_commands(parser.add_subparsers(dest="queue_command", required=True), _QUEUE_COMMANDS)


def _run_queue(args: argparse.Namespace) -> List[str]:
    return _QUEUE_COMMANDS[args.queue_command].run(args)


def _report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jsonl", type=str, required=True, help="record file to aggregate")


def _run_report(args: argparse.Namespace) -> List[str]:
    try:
        records = read_jsonl(args.jsonl)
    except OSError as error:
        raise ConfigurationError(f"cannot read {args.jsonl}: {error.strerror}") from error
    if not records:
        return [f"no records in {args.jsonl}"]
    param_keys, payload_keys = record_columns(records)
    headers = ["index", "kind"] + param_keys + payload_keys + ["cached"]
    rows = [
        [record.index, record.kind]
        + [record.params.get(key) for key in param_keys]
        + [record.payload.get(key) for key in payload_keys]
        + [record.cached]
        for record in records
    ]
    return [ascii_table(headers, rows, title=f"records from {args.jsonl}")]


_E5_SECTION = "E5 — Theorem 27: the exact solvability map"

#: Every subcommand, in ``repro list`` order; the experiment registry's
#: standalone entries (``repro figure1``, ...) are generated from the registry.
COMMANDS: Dict[str, Command] = {
    "list": Command("list available experiments", "the artifact index (all sections)", _run_list),
    **{e.command: _standalone(e) for e in EXPERIMENT_REGISTRY.values() if e.command},
    "map": Command(
        "E5 — Theorem 27 solvability map for one problem", _E5_SECTION, _run_map, _map_arguments
    ),
    "separations": Command(
        "E5 — separation statements cross-checked against the oracle",
        _E5_SECTION, _run_separations,
    ),
    "solve": Command(
        "one end-to-end agreement run in the matching system",
        "E3 — Theorem 24 / Corollary 25: (t,k,n)-agreement in S^k_{t+1,n}",
        _run_solve, _solve_arguments,
    ),
    "scenarios": Command(
        "list the composable scenario families, or run the detector on one",
        "E10 — the composable scenario families",
        _run_scenarios, _scenarios_arguments,
    ),
    "search": Command(
        "E11 — adversarial schedule search: falsify → shrink → certify",
        "E11 — adversarial schedule search (falsify → shrink → certify)",
        _run_search, _search_arguments,
    ),
    "distsim": Command(
        "E12 — message-passing timelines reduced to schedules; set "
        "timeliness emerges from message timeliness",
        "E12 — set-timeliness emergence from message timeliness (distsim)",
        _run_distsim, _distsim_arguments,
    ),
    "campaign": Command(
        "run a named campaign through the parallel campaign engine",
        "E1–E4, E10, A1–A2 (campaign forms) and 'Campaign engine speedup'",
        _run_campaign, _campaign_arguments,
    ),
    "queue": Command(
        "durable crash-safe campaign queue: enqueue, work, status, drain",
        _QUEUE_SECTION, _run_queue, _queue_arguments,
    ),
    "report": Command(
        "re-aggregate a campaign's JSON-lines record file into a table",
        "Campaign engine speedup (JSON-lines record aggregation)",
        _run_report, _report_arguments,
    ),
}


def run(argv: Optional[Sequence[str]] = None) -> List[str]:
    """Execute the CLI and return the lines it would print (also used by tests).

    Configuration mistakes (an unknown family or property name,
    an unreadable records file, ...) propagate as
    :class:`~repro.errors.ConfigurationError`, so programmatic callers can
    catch them; the console entry point (:func:`main`) converts them into a
    clean one-line exit naming the valid choices.
    """
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command or "list"].run(args)


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
