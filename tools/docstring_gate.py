#!/usr/bin/env python3
"""Docstring coverage gate: fail when public API surface lacks docstrings.

Walks the given files/directories, parses each ``*.py`` with :mod:`ast`, and
reports every public module, class, and function (including methods) without
a docstring.  "Public" means the name does not start with an underscore; a
module is public unless its file name does.  Nested functions are skipped —
they are implementation detail, not API surface.

Usage::

    python tools/docstring_gate.py                    # gate every path in GATED
    python tools/docstring_gate.py src/repro/search   # gate the given paths

With no arguments it checks :data:`GATED`, the one list of gated paths that
CI and the tier-1 tests both read.  Exit status 0 when everything is
documented, 1 otherwise (missing items are listed one per line as
``path:lineno: kind name``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

#: (path, line, kind, qualified name) of one undocumented definition.
Missing = Tuple[Path, int, str, str]

#: The repository root; :data:`GATED` paths are relative to it.
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Every file or package whose public surface must stay fully documented.
GATED = [
    "src/repro/search",
    "src/repro/runtime/kernel.py",
    "src/repro/runtime/simulator.py",
    "src/repro/runtime/vector_backend.py",
    "src/repro/runtime/automaton.py",
    "src/repro/runtime/composition.py",
    "src/repro/runtime/observers.py",
    "src/repro/failure_detectors/anti_omega.py",
    "src/repro/failure_detectors/base.py",
    "src/repro/analysis/metrics.py",
    "src/repro/campaign",
    "src/repro/distsim",
    "src/repro/schedules/set_timely.py",
    "src/repro/schedules/base.py",
    "src/repro/core/schedule.py",
    "src/repro/schedules/round_robin.py",
    "src/repro/schedules/adversary.py",
    "src/repro/schedules/random_schedule.py",
    "src/repro/schedules/segments.py",
    "src/repro/scenarios/families.py",
    "src/repro/core/timeliness.py",
    "src/repro/core/systems.py",
    "src/repro/analysis/experiment.py",
    "src/repro/cli.py",
    "src/repro/memo.py",
]


def iter_python_files(targets: List[Path]) -> Iterator[Path]:
    """Yield every ``*.py`` file under the given files/directories, sorted."""
    for target in targets:
        if target.is_dir():
            yield from sorted(target.rglob("*.py"))
        elif target.suffix == ".py":
            yield target


def _check_body(
    path: Path, nodes: List[ast.stmt], prefix: str, missing: List[Missing]
) -> None:
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if name.startswith("_"):
                continue
            qualified = f"{prefix}{name}"
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            if ast.get_docstring(node) is None:
                missing.append((path, node.lineno, kind, qualified))
            if isinstance(node, ast.ClassDef):
                _check_body(path, node.body, f"{qualified}.", missing)


def check_file(path: Path) -> List[Missing]:
    """All undocumented public definitions in one Python file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    missing: List[Missing] = []
    if not path.stem.startswith("_") or path.name == "__init__.py":
        if ast.get_docstring(tree) is None:
            missing.append((path, 1, "module", path.stem))
    _check_body(path, tree.body, "", missing)
    return missing


def check(targets: List[Path]) -> List[Missing]:
    """All undocumented public definitions under the given targets."""
    missing: List[Missing] = []
    for path in iter_python_files(targets):
        missing.extend(check_file(path))
    return missing


def main(argv: List[str]) -> int:
    """CLI entry point: print missing docstrings, return the exit status."""
    targets = [Path(argument) for argument in argv] or [REPO_ROOT / path for path in GATED]
    for target in targets:
        if not target.exists():
            print(f"docstring gate: no such path {target}", file=sys.stderr)
            return 2
    missing = check(targets)
    if missing:
        for path, lineno, kind, name in missing:
            print(f"{path}:{lineno}: undocumented public {kind} {name}")
        print(f"docstring gate: {len(missing)} undocumented public definition(s)")
        return 1
    print(f"docstring gate: ok ({len(list(iter_python_files(targets)))} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
