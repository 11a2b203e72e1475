"""Tier-1 mirrors of the CI documentation gates.

CI runs ``python -m doctest docs/GUIDE.md`` and
``python tools/docstring_gate.py src/repro/search`` as separate workflow
steps; these tests run the same checks from the test suite so a failure is
caught locally before any push.
"""

import doctest
import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_guide_doctests_pass():
    results = doctest.testfile(
        str(REPO_ROOT / "docs" / "GUIDE.md"), module_relative=False, verbose=False
    )
    assert results.attempted > 10, "GUIDE.md lost its executable examples"
    assert results.failed == 0


def _docstring_gate():
    spec = importlib.util.spec_from_file_location(
        "docstring_gate", REPO_ROOT / "tools" / "docstring_gate.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def _assert_fully_documented(targets):
    missing = _docstring_gate().check(targets)
    formatted = "\n".join(
        f"{path}:{line}: {kind} {name}" for path, line, kind, name in missing
    )
    assert not missing, f"undocumented public definitions:\n{formatted}"


def test_search_subsystem_docstring_coverage():
    _assert_fully_documented([REPO_ROOT / "src" / "repro" / "search"])


def test_execution_layer_docstring_coverage():
    # Same gate CI runs: the kernel, the simulator and the sim-free screen
    # kernel are public API surface and must stay fully documented.
    _assert_fully_documented(
        [
            REPO_ROOT / "src" / "repro" / "runtime" / "kernel.py",
            REPO_ROOT / "src" / "repro" / "runtime" / "simulator.py",
            REPO_ROOT / "src" / "repro" / "runtime" / "vector_backend.py",
        ]
    )


def test_campaign_package_docstring_coverage():
    # Same gate CI runs: the whole campaign package (specs, records, cache,
    # engine, runner, the durable queue and its chaos harness) is public API
    # surface and must stay fully documented.
    _assert_fully_documented([REPO_ROOT / "src" / "repro" / "campaign"])


def test_distsim_docstring_coverage():
    # Same gate CI runs: the message-passing discrete-event tier (engine,
    # latency models, workload families, timeline→schedule reduction) is
    # public API surface and must stay fully documented.
    _assert_fully_documented([REPO_ROOT / "src" / "repro" / "distsim"])


def test_timeliness_docstring_coverage():
    # Same gate CI runs: the set-timeliness analysis (Definition 1's scanner,
    # witnesses and the Observation 2/3 checks) must stay fully documented.
    _assert_fully_documented([REPO_ROOT / "src" / "repro" / "core" / "timeliness.py"])


def test_systems_docstring_coverage():
    # Same gate CI runs: the S^i_{j,n} systems and their witness search
    # must stay fully documented.
    _assert_fully_documented([REPO_ROOT / "src" / "repro" / "core" / "systems.py"])


def test_schedule_formalism_and_generator_base_docstring_coverage():
    # Same gate CI runs: the schedule formalism (with its step-buffer scan)
    # and the generator base must stay fully documented.
    _assert_fully_documented(
        [
            REPO_ROOT / "src" / "repro" / "core" / "schedule.py",
            REPO_ROOT / "src" / "repro" / "schedules" / "base.py",
        ]
    )


def test_schedule_families_docstring_coverage():
    # Same gate CI runs: the segment-emitting schedule families and their
    # segment helpers must stay fully documented.
    schedules = REPO_ROOT / "src" / "repro" / "schedules"
    _assert_fully_documented(
        [
            schedules / "round_robin.py",
            schedules / "adversary.py",
            schedules / "random_schedule.py",
            schedules / "segments.py",
            REPO_ROOT / "src" / "repro" / "scenarios" / "families.py",
        ]
    )


def test_schedule_module_doctests_pass():
    import repro.core.schedule as schedule_module

    results = doctest.testmod(schedule_module, verbose=False)
    assert results.attempted >= 1, f"{schedule_module.__name__} lost its examples"
    assert results.failed == 0


def test_crash_pattern_doctests_pass():
    import repro.runtime.crash as crash_module

    results = doctest.testmod(crash_module, verbose=False)
    assert results.attempted >= 1, f"{crash_module.__name__} lost its examples"
    assert results.failed == 0


def test_observers_detector_vocabulary_and_metrics_docstring_coverage():
    # Same gate CI runs: the run observers, the shared detector vocabulary and
    # the run metrics must stay fully documented.
    _assert_fully_documented(
        [
            REPO_ROOT / "src" / "repro" / "runtime" / "observers.py",
            REPO_ROOT / "src" / "repro" / "failure_detectors" / "base.py",
            REPO_ROOT / "src" / "repro" / "analysis" / "metrics.py",
        ]
    )


def test_screen_kernel_module_doctests_pass():
    # CI's "Screen kernel module doctests" step, mirrored in tier-1: the
    # example must pass with and without numpy (it compares the kernel with
    # a tracked run only when numpy is there).
    import repro.runtime.vector_backend as vector_module

    results = doctest.testmod(vector_module, verbose=False)
    assert results.attempted >= 1, f"{vector_module.__name__} lost its examples"
    assert results.failed == 0


def test_counterexample_atlas_names_regenerating_commands():
    atlas = (REPO_ROOT / "docs" / "COUNTEREXAMPLES.md").read_text(encoding="utf-8")
    # Every atlas entry must carry the exact command that regenerates it.
    assert atlas.count("repro search --property") >= 2
    assert "out of model" in atlas
    assert "in-model" in atlas
