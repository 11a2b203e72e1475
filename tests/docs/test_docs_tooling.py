"""Tier-1 mirrors of the CI documentation gates.

CI runs ``python -m doctest docs/GUIDE.md`` and
``python tools/docstring_gate.py`` (every path in its ``GATED`` list) as
separate workflow steps; these tests run the same checks from the test suite
so a failure is caught locally before any push.
"""

import doctest
import importlib.util
from pathlib import Path

import pytest

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


DOCSTRING_GATE = _docstring_gate()


@pytest.mark.parametrize("path", DOCSTRING_GATE.GATED)
def test_gated_path_is_fully_documented(path):
    # The one list CI's docstring-gate step checks (the gate with no arguments).
    target = REPO_ROOT / path
    assert target.exists(), f"gated path {path} does not exist"
    missing = DOCSTRING_GATE.check([target])
    formatted = "\n".join(
        f"{file}:{line}: {kind} {name}" for file, line, kind, name in missing
    )
    assert not missing, f"undocumented public definitions:\n{formatted}"


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
