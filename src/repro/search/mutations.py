"""Candidate recipes: JSON-addressable descriptions of mutated schedules.

The falsification engine never mutates step buffers ad hoc.  A candidate is a
*recipe* — a plain JSON dict naming a registered scenario family (the base),
the compile horizon, and an ordered list of mutation directives — and
:func:`realize` turns a recipe into a :class:`~repro.core.schedule.CompiledSchedule`
deterministically.  Recipes are what travel through the campaign layer: they
are content-addressable (two equal recipes share a cache entry), they survive
JSON-lines files unchanged, and any counterexample in the atlas can be rebuilt
from its recipe alone.

Mutation directives keep the buffer length and the process universe fixed —
every mutation rewrites steps in place, so a mutated candidate is always a
valid schedule prefix over the same ``Πn`` and the same horizon as its base:

``burst``
    Overwrite a window with solo steps of one process (an adversarial burst).
``silence``
    Within a window, replace every step of the silenced processes with steps
    of a substitute — the processes stay *correct* (no crash metadata) but
    take no step there, which is exactly how set timeliness is destroyed
    without leaving the crash model.
``swap``
    Exchange two equal-length disjoint blocks (reorders synchrony epochs).
``rotate``
    Rotate the whole buffer (shifts which regime the run ends in).
``stutter``
    Replace a window with its own first part repeated (locally degrades
    schedule diversity without changing participants).
``crash``
    From a step index onward, replace a process's steps with a substitute's
    and record the crash in the compiled metadata — a genuine model crash,
    visible to the ground-truth correct set.

After all directives are applied, :func:`realize` re-enforces crash
consistency (a crashed process takes no step at or after its crash index), so
every realized candidate satisfies the invariant the rest of the library
assumes of :class:`~repro.core.schedule.CompiledSchedule` buffers.
"""

from __future__ import annotations

import random
from array import array
from typing import Any, Dict, List, Mapping, MutableSequence, Optional

from ..campaign import runner
from ..campaign.spec import canonical_json
from ..core.schedule import CompiledSchedule
from ..errors import ConfigurationError

#: The mutation operations :func:`apply_mutation` understands.
MUTATION_OPS = ("burst", "silence", "swap", "rotate", "stutter", "crash")


def make_recipe(
    base: Mapping[str, Any],
    horizon: int,
    mutations: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Assemble a candidate recipe dict (the JSON form the engine passes around)."""
    if horizon < 1:
        raise ConfigurationError(f"recipe horizon must be >= 1, got {horizon}")
    return {
        "base": dict(base),
        "horizon": int(horizon),
        "mutations": [dict(m) for m in (mutations or [])],
    }


def recipe_signature(recipe: Mapping[str, Any]) -> str:
    """Canonical JSON identity of a recipe (used for dedup and determinism ties)."""
    return canonical_json(dict(recipe))


def describe_recipe(recipe: Mapping[str, Any]) -> str:
    """Compact human-readable provenance: family + mutation op chain."""
    base = recipe.get("base", {})
    family = base.get("schedule", "set-timely")
    ops = "+".join(str(m.get("op", "?")) for m in recipe.get("mutations", ()))
    suffix = f" ∘ {ops}" if ops else ""
    return f"{family}[h={recipe.get('horizon')}]{suffix}"


# ----------------------------------------------------------------------
# Applying directives
# ----------------------------------------------------------------------

def _substitute_for(excluded: frozenset, n: int, preferred: Optional[int] = None) -> int:
    """The process that absorbs rewritten steps: preferred, else lowest eligible id."""
    if preferred is not None and 1 <= preferred <= n and preferred not in excluded:
        return preferred
    for pid in range(1, n + 1):
        if pid not in excluded:
            return pid
    raise ConfigurationError("mutation would leave no process able to take steps")


def _window(directive: Mapping[str, Any], length: int) -> "tuple[int, int]":
    """Clamp a directive's ``start``/``length`` window into the buffer."""
    start = max(0, min(int(directive.get("start", 0)), max(length - 1, 0)))
    window = max(1, int(directive.get("length", 1)))
    return start, min(start + window, length)


def _filled(steps: MutableSequence[int], pid: int, count: int) -> MutableSequence[int]:
    """``count`` copies of ``pid``, as the same sequence type as ``steps``."""
    unit = steps[:1]
    unit[0] = pid
    return unit * count


def _remap(
    steps: MutableSequence[int], start: int, end: int, images: Dict[int, int], n: int
) -> None:
    """Rewrite ``steps[start:end]`` through ``images`` (pid -> pid, others kept).

    An ``array('i')`` over ``Πn`` with ``n <= 255`` holds each step as its
    pid's byte plus zero bytes, so one ``bytes.translate`` of the window's
    raw bytes (zero maps to itself) rewrites every step in C; anything else
    maps the window through ``dict.get``.
    """
    window = steps[start:end]
    if isinstance(window, array) and window.typecode == "i" and n <= 255:
        table = bytearray(range(256))
        for pid, image in images.items():
            table[pid] = image
        mapped = array("i")
        mapped.frombytes(window.tobytes().translate(table))
    else:
        mapped = window[:0]
        mapped.extend(map(images.get, window, window))
    steps[start:end] = mapped


def apply_mutation(
    steps: MutableSequence[int],
    crash_steps: Dict[int, int],
    n: int,
    directive: Mapping[str, Any],
) -> None:
    """Apply one directive to ``steps``/``crash_steps`` in place.

    ``steps`` is a list or an ``array('i')`` of steps in ``Πn``; every
    rewrite is a slice assignment (``silence`` maps its window through a pid
    table), so a directive costs no per-step Python work.

    Directives are forgiving by construction — windows are clamped into the
    buffer and degenerate parameters become no-ops — because the engine
    samples them randomly and a candidate that raises mid-generation would
    poison an entire cached campaign run.
    """
    op = str(directive.get("op", ""))
    length = len(steps)
    if length == 0:
        return
    if op == "burst":
        pid = int(directive.get("pid", 1))
        if not 1 <= pid <= n:
            raise ConfigurationError(f"burst mutation names process {pid} outside Πn")
        start, end = _window(directive, length)
        steps[start:end] = _filled(steps, pid, end - start)
    elif op == "silence":
        silenced = frozenset(int(p) for p in directive.get("pids", ()))
        silenced = frozenset(p for p in silenced if 1 <= p <= n)
        if not silenced or len(silenced) >= n:
            return
        substitute = _substitute_for(silenced, n, directive.get("substitute"))
        start, end = _window(directive, length)
        _remap(steps, start, end, dict.fromkeys(silenced, substitute), n)
    elif op == "swap":
        block = max(1, int(directive.get("length", 1)))
        first = max(0, int(directive.get("first", 0)))
        second = max(0, int(directive.get("second", 0)))
        if first > second:
            first, second = second, first
        block = min(block, second - first, length - second)
        if block <= 0:
            return
        # block <= second - first: the two blocks never overlap.
        steps[first : first + block], steps[second : second + block] = (
            steps[second : second + block],
            steps[first : first + block],
        )
    elif op == "rotate":
        offset = int(directive.get("offset", 0)) % length
        if offset:
            steps[:] = steps[offset:] + steps[:offset]
    elif op == "stutter":
        start, end = _window(directive, length)
        times = max(2, int(directive.get("times", 2)))
        window = end - start
        unit = max(1, window // times)
        steps[start:end] = (steps[start : start + unit] * -(-window // unit))[:window]
    elif op == "crash":
        pid = int(directive.get("pid", 1))
        if not 1 <= pid <= n:
            raise ConfigurationError(f"crash mutation names process {pid} outside Πn")
        already = frozenset(crash_steps) | {pid}
        if len(already) >= n:
            return  # refuse to crash the last live process
        at = max(0, min(int(directive.get("at", 0)), length))
        crash_steps[pid] = min(at, crash_steps.get(pid, at))
    else:
        raise ConfigurationError(
            f"unknown mutation op {op!r}; expected one of {MUTATION_OPS}"
        )


def _enforce_crashes(
    steps: MutableSequence[int], crash_steps: Dict[int, int], n: int
) -> None:
    """Rewrite any step a crashed process would take at/after its crash index.

    This is the invariant that makes a realized candidate a *prefix-consistent*
    compiled schedule: the crash metadata never contradicts the buffer, no
    matter how directives interleaved (a burst can resurrect a process that a
    later directive crashes, and vice versa).

    Per faulty process, one ``index`` scan from its crash index finds its
    first late step, and the rest of the buffer is remapped from there.  The
    substitute is never faulty, so no rewrite creates a step another pass
    would have to catch.
    """
    if not crash_steps:
        return
    substitute = _substitute_for(frozenset(crash_steps), n)
    for pid, crash_at in crash_steps.items():
        try:
            first = steps.index(pid, max(crash_at, 0))
        except ValueError:
            continue
        _remap(steps, first, len(steps), {pid: substitute}, n)


def realize(recipe: Mapping[str, Any]) -> CompiledSchedule:
    """Materialize a recipe into a compiled, mutation-applied schedule buffer.

    Deterministic: the base family's generator chain is compiled once per
    process (seeded by the recipe's own parameters) and shared through the
    campaign layer's compiled-schedule memo
    (:func:`~repro.campaign.runner.compiled_schedule_for`, which keeps the
    16 most recently used scenarios), then the
    directives are applied to a copy of its step array in order and crash
    consistency is re-enforced.  An unmutated recipe returns the shared base
    buffer itself, so callers must treat the result as read-only.  Two equal
    recipes always produce byte-identical buffers, which is what lets
    generations be cached as content-addressed campaign runs.
    """
    base_params = dict(recipe["base"])
    horizon = int(recipe["horizon"])
    # Looked up through the module so a patched or traced memo is honoured.
    compiled = runner.compiled_schedule_for(base_params, horizon)
    mutations = list(recipe.get("mutations", ()))
    if not mutations:
        return compiled
    steps = array("i", compiled.steps)
    crash_steps: Dict[int, int] = dict(compiled.crash_steps)
    for directive in mutations:
        apply_mutation(steps, crash_steps, compiled.n, directive)
    _enforce_crashes(steps, crash_steps, compiled.n)
    return CompiledSchedule(
        n=compiled.n,
        steps=steps,
        crash_steps=crash_steps,
        description=describe_recipe(recipe),
    )


# ----------------------------------------------------------------------
# Sampling directives (the guided-random part of falsification)
# ----------------------------------------------------------------------

def sample_mutation(
    rng: random.Random,
    n: int,
    horizon: int,
    focus_pids: Optional[List[int]] = None,
) -> Dict[str, Any]:
    """Draw one mutation directive from the seeded stream.

    ``focus_pids`` biases ``silence``/``burst`` toward the processes whose
    timeliness the property under attack depends on (the engine passes the
    base scenario's ``p_set``), which is what makes the search *guided* rather
    than blind: destroying the certified timely set is the shortest path to a
    near-violation.
    """
    focus = [pid for pid in (focus_pids or []) if 1 <= pid <= n]
    op = rng.choice(MUTATION_OPS)
    start = rng.randrange(horizon)
    window = rng.randint(max(2, horizon // 16), max(3, horizon // 2))
    if op == "burst":
        pool = [pid for pid in range(1, n + 1) if pid not in focus] or list(range(1, n + 1))
        return {"op": "burst", "pid": rng.choice(pool), "start": start, "length": window}
    if op == "silence":
        pool = focus or list(range(1, n + 1))
        count = rng.randint(1, max(1, min(len(pool), n - 1)))
        return {
            "op": "silence",
            "pids": sorted(rng.sample(pool, count)),
            "start": start,
            "length": window,
        }
    if op == "swap":
        return {
            "op": "swap",
            "first": rng.randrange(horizon),
            "second": rng.randrange(horizon),
            "length": max(1, window // 2),
        }
    if op == "rotate":
        return {"op": "rotate", "offset": rng.randrange(1, horizon)}
    if op == "stutter":
        return {"op": "stutter", "start": start, "length": window, "times": rng.randint(2, 4)}
    return {"op": "crash", "pid": rng.randint(1, n), "at": start}


def mutate_recipe(
    recipe: Mapping[str, Any],
    rng: random.Random,
    n: int,
    extra: int = 1,
    focus_pids: Optional[List[int]] = None,
) -> Dict[str, Any]:
    """A copy of ``recipe`` with ``extra`` freshly sampled directives appended."""
    horizon = int(recipe["horizon"])
    mutations = [dict(m) for m in recipe.get("mutations", ())]
    for _ in range(max(1, extra)):
        mutations.append(sample_mutation(rng, n, horizon, focus_pids=focus_pids))
    return make_recipe(recipe["base"], horizon, mutations)
