"""repro — a reproduction of "Partial Synchrony Based on Set Timeliness".

The library makes the paper's formal framework executable:

* :mod:`repro.core` — schedules, set timeliness, the systems ``S^i_{j,n}``,
  and the Theorem 27 solvability characterization;
* :mod:`repro.memory` / :mod:`repro.runtime` — the read/write shared-memory
  model and the step-level simulator;
* :mod:`repro.schedules` — schedule generators (benign, Figure 1, set-timely,
  adversarial);
* :mod:`repro.failure_detectors` — the Figure 2 algorithm for t-resilient
  k-anti-Ω and its verifiers;
* :mod:`repro.agreement` — (t, k, n)-agreement protocols built on the detector;
* :mod:`repro.bg`, :mod:`repro.iis` — the substrates used by the paper's
  proofs and related-work discussion;
* :mod:`repro.analysis` — experiment running and reporting helpers.

Quickstart::

    from repro import (
        AgreementInstance, SetTimelyGenerator, solve_agreement, matching_system,
    )

    problem = AgreementInstance(t=2, k=2, n=4)
    system = matching_system(problem)              # S^2_{3,4}
    generator = SetTimelyGenerator(
        n=4, p_set={1, 2}, q_set={1, 2, 3}, bound=3, seed=7,
    )
    report = solve_agreement(problem, {1: 10, 2: 20, 3: 30, 4: 40},
                             generator, max_steps=200_000)
    assert report.verdict.satisfied
"""

from .agreement import (
    AgreementRunReport,
    AgreementVerdict,
    binary_inputs,
    check_agreement,
    distinct_inputs,
    solve_agreement,
)
from .core import (
    AsynchronousSystem,
    Schedule,
    ScheduleBuilder,
    SetTimelinessSystem,
    TimelinessWitness,
    analyze_timeliness,
    classify,
    is_solvable,
    is_timely,
    matching_system,
    minimal_timeliness_bound,
    partially_synchronous_system,
    separations,
    solvability_grid,
    solvable_frontier,
    system_family,
)
from .failure_detectors import (
    KAntiOmegaAutomaton,
    OmegaAutomaton,
    check_k_anti_omega,
    check_leader_set_convergence,
    make_anti_omega_algorithm,
)
from .runtime import CrashPattern, Simulator, build_simulator
from .schedules import (
    CarrierRotationAdversary,
    EventuallySynchronousGenerator,
    Figure1Generator,
    RandomGenerator,
    RoundRobinGenerator,
    SetTimelyGenerator,
)
from .scenarios import ScenarioSpec, build_scenario
from .types import AgreementInstance, SystemCoordinates


def _resolve_version() -> str:
    """The installed distribution's version, with a source-tree fallback.

    ``python -m repro --version`` must work both for the installed package
    (single source of truth: the distribution metadata from pyproject.toml)
    and for a bare ``PYTHONPATH=src`` checkout, where no metadata exists —
    there the checkout's own pyproject.toml is read directly, so the version
    is never duplicated in code.  "unknown" only appears for a metadata-less
    install with no source tree (e.g. a vendored copy), where no truthful
    number exists.
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version("repro-set-timeliness")
    except PackageNotFoundError:
        pass
    try:
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        match = re.search(
            r'^version = "([^"]+)"', pyproject.read_text(encoding="utf-8"), re.MULTILINE
        )
        if match:
            return match.group(1)
    except OSError:
        pass
    return "unknown"


def __getattr__(name: str) -> str:
    """Resolve ``__version__`` on first access (PEP 562) and cache it.

    Reading the distribution metadata imports :mod:`importlib.metadata` and
    with it ``email``, ``zipfile``, ``csv`` and ``socket``; only ``--version``
    and callers that ask for the version pay for that, not every
    ``import repro``.
    """
    if name == "__version__":
        value = _resolve_version()
        globals()["__version__"] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AgreementRunReport",
    "AgreementVerdict",
    "binary_inputs",
    "check_agreement",
    "distinct_inputs",
    "solve_agreement",
    "AsynchronousSystem",
    "Schedule",
    "ScheduleBuilder",
    "SetTimelinessSystem",
    "TimelinessWitness",
    "analyze_timeliness",
    "classify",
    "is_solvable",
    "is_timely",
    "matching_system",
    "minimal_timeliness_bound",
    "partially_synchronous_system",
    "separations",
    "solvability_grid",
    "solvable_frontier",
    "system_family",
    "KAntiOmegaAutomaton",
    "OmegaAutomaton",
    "check_k_anti_omega",
    "check_leader_set_convergence",
    "make_anti_omega_algorithm",
    "CrashPattern",
    "Simulator",
    "build_simulator",
    "CarrierRotationAdversary",
    "EventuallySynchronousGenerator",
    "Figure1Generator",
    "RandomGenerator",
    "RoundRobinGenerator",
    "SetTimelyGenerator",
    "AgreementInstance",
    "SystemCoordinates",
    "ScenarioSpec",
    "build_scenario",
    "__version__",
]
