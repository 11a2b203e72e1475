"""Tests for candidate recipes and mutation directives."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import runner
from repro.errors import ConfigurationError
from repro.memo import LRUMemo
from repro.scenarios.spec import build_generator
from repro.search import (
    MUTATION_OPS,
    apply_mutation,
    describe_recipe,
    make_recipe,
    mutate_recipe,
    realize,
    recipe_signature,
    sample_mutation,
)
from repro.search.mutations import _enforce_crashes, _substitute_for, _window

BASE = {
    "schedule": "set-timely",
    "n": 4,
    "t": 2,
    "k": 2,
    "p_set": [1, 2],
    "q_set": [1, 2, 3],
    "bound": 3,
    "seed": 7,
}


class TestRealize:
    def test_no_mutations_matches_generator_compile(self):
        recipe = make_recipe(BASE, 600)
        compiled = realize(recipe)
        direct = build_generator(BASE).compile(600)
        assert compiled.steps == direct.steps
        assert compiled.crash_steps == direct.crash_steps

    def test_deterministic(self):
        recipe = make_recipe(
            BASE, 600, [{"op": "burst", "pid": 4, "start": 100, "length": 80}]
        )
        first = realize(recipe)
        second = realize(recipe)
        assert first.steps == second.steps
        assert first.crash_steps == second.crash_steps

    def test_burst_overwrites_window(self):
        recipe = make_recipe(
            BASE, 400, [{"op": "burst", "pid": 4, "start": 50, "length": 30}]
        )
        steps = list(realize(recipe).steps)
        assert steps[50:80] == [4] * 30
        baseline = list(realize(make_recipe(BASE, 400)).steps)
        assert steps[:50] == baseline[:50]
        assert steps[80:] == baseline[80:]

    def test_silence_replaces_silenced_pids_in_window(self):
        recipe = make_recipe(
            BASE, 400, [{"op": "silence", "pids": [1, 2], "start": 100, "length": 200}]
        )
        steps = list(realize(recipe).steps)
        assert all(pid not in (1, 2) for pid in steps[100:300])
        # Length and universe preserved.
        assert len(steps) == 400
        assert all(1 <= pid <= 4 for pid in steps)

    def test_crash_records_metadata_and_buffer_is_consistent(self):
        recipe = make_recipe(BASE, 400, [{"op": "crash", "pid": 3, "at": 120}])
        compiled = realize(recipe)
        assert compiled.crash_steps[3] == 120
        assert all(pid != 3 for pid in list(compiled.steps)[120:])
        assert 3 in compiled.faulty

    def test_crash_consistency_enforced_after_resurrecting_burst(self):
        # The burst would schedule the crashed process after its crash step;
        # realize() must re-enforce the metadata invariant.
        recipe = make_recipe(
            BASE,
            400,
            [
                {"op": "crash", "pid": 3, "at": 100},
                {"op": "burst", "pid": 3, "start": 200, "length": 50},
            ],
        )
        compiled = realize(recipe)
        assert all(pid != 3 for pid in list(compiled.steps)[100:])

    def test_crash_never_kills_the_last_process(self):
        mutations = [{"op": "crash", "pid": pid, "at": 0} for pid in (1, 2, 3, 4)]
        compiled = realize(make_recipe(BASE, 200, mutations))
        assert len(compiled.faulty) == 3  # the fourth crash is refused

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            realize(make_recipe(BASE, 100, [{"op": "teleport"}]))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ConfigurationError):
            make_recipe(BASE, 0)

    def test_rotate_and_swap_preserve_step_multiset(self):
        baseline = sorted(realize(make_recipe(BASE, 300)).steps)
        for directive in (
            {"op": "rotate", "offset": 97},
            {"op": "swap", "first": 10, "second": 200, "length": 40},
        ):
            mutated = realize(make_recipe(BASE, 300, [directive]))
            assert sorted(mutated.steps) == baseline

    def test_signature_ignores_key_order(self):
        a = recipe_signature({"base": dict(BASE), "horizon": 100, "mutations": []})
        b = recipe_signature({"mutations": [], "horizon": 100, "base": dict(BASE)})
        assert a == b

    def test_describe_names_family_and_ops(self):
        recipe = make_recipe(BASE, 100, [{"op": "rotate", "offset": 3}])
        description = describe_recipe(recipe)
        assert "set-timely" in description
        assert "rotate" in description


#: Directives that rewrite the steps in every way ``apply_mutation`` can,
#: crash metadata included.
MEMO_DIRECTIVES = [
    [{"op": "burst", "pid": 4, "start": 30, "length": 50}],
    [{"op": "silence", "pids": [1, 2], "start": 0, "length": 200}],
    [{"op": "swap", "first": 5, "second": 150, "length": 60}],
    [{"op": "rotate", "offset": 123}],
    [{"op": "stutter", "start": 40, "length": 90, "times": 3}],
    [{"op": "crash", "pid": 3, "at": 100}, {"op": "burst", "pid": 3, "start": 150, "length": 20}],
]


class TestRealizeMemo:
    """``realize`` compiles each base once per process through the campaign memo."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setattr(runner, "_COMPILED_MEMO", LRUMemo(runner._COMPILED_MEMO.limit))

    def test_mutated_recipes_leave_the_memoized_base_intact(self):
        shared = realize(make_recipe(BASE, 400))
        for mutations in MEMO_DIRECTIVES:
            realize(make_recipe(BASE, 400, mutations))
        fresh = build_generator(BASE).compile(400)
        assert realize(make_recipe(BASE, 400)) is shared
        assert shared.steps.tobytes() == fresh.steps.tobytes()
        assert shared.crash_steps == fresh.crash_steps
        assert shared.description == fresh.description

    def test_one_base_is_built_once(self, monkeypatch):
        calls = []

        def counting_build_generator(params):
            calls.append(dict(params))
            return build_generator(params)

        monkeypatch.setattr(runner, "build_generator", counting_build_generator)
        for index in range(10):
            mutations = MEMO_DIRECTIVES[index % len(MEMO_DIRECTIVES)] if index % 2 else []
            realize(make_recipe(BASE, 400, mutations))
        assert len(calls) == 1


class TestSampling:
    def test_sample_mutation_deterministic_for_fixed_seed(self):
        first = [sample_mutation(random.Random(5), 4, 1000, [1, 2]) for _ in range(1)]
        second = [sample_mutation(random.Random(5), 4, 1000, [1, 2]) for _ in range(1)]
        assert first == second

    def test_sampled_directives_always_realize(self):
        rng = random.Random(11)
        recipe = make_recipe(BASE, 500)
        for _ in range(40):
            recipe = mutate_recipe(recipe, rng, 4, extra=1, focus_pids=[1, 2])
        compiled = realize(recipe)
        assert len(compiled) == 500
        assert all(1 <= pid <= 4 for pid in compiled.steps)

    def test_sampled_ops_come_from_the_registry(self):
        rng = random.Random(3)
        for _ in range(30):
            directive = sample_mutation(rng, 4, 800)
            assert directive["op"] in MUTATION_OPS

    def test_mutate_recipe_appends_without_touching_the_parent(self):
        parent = make_recipe(BASE, 200)
        child = mutate_recipe(parent, random.Random(1), 4, extra=2)
        assert len(child["mutations"]) == 2
        assert parent["mutations"] == []


class TestApplyMutation:
    def test_silence_of_everyone_is_a_noop(self):
        steps = [1, 2, 3, 4] * 10
        before = list(steps)
        apply_mutation(steps, {}, 4, {"op": "silence", "pids": [1, 2, 3, 4], "start": 0, "length": 40})
        assert steps == before

    def test_windows_are_clamped_into_the_buffer(self):
        steps = [1, 2, 3, 4]
        apply_mutation(steps, {}, 4, {"op": "burst", "pid": 2, "start": 999, "length": 50})
        assert steps[-1] == 2

    def test_burst_outside_universe_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_mutation([1, 2], {}, 2, {"op": "burst", "pid": 9, "start": 0, "length": 1})


# ----------------------------------------------------------------------
# The per-element loops, kept as the reference the slice-assignment
# directives and the index-scan crash enforcement must reproduce exactly.
# ----------------------------------------------------------------------

def reference_apply_mutation(steps, crash_steps, n, directive):
    """``apply_mutation`` as one Python step per rewritten element."""
    op = str(directive.get("op", ""))
    length = len(steps)
    if length == 0:
        return
    if op == "burst":
        pid = int(directive.get("pid", 1))
        if not 1 <= pid <= n:
            raise ConfigurationError(f"burst mutation names process {pid} outside Πn")
        start, end = _window(directive, length)
        for index in range(start, end):
            steps[index] = pid
    elif op == "silence":
        silenced = frozenset(int(p) for p in directive.get("pids", ()))
        silenced = frozenset(p for p in silenced if 1 <= p <= n)
        if not silenced or len(silenced) >= n:
            return
        substitute = _substitute_for(silenced, n, directive.get("substitute"))
        start, end = _window(directive, length)
        for index in range(start, end):
            if steps[index] in silenced:
                steps[index] = substitute
    elif op == "swap":
        block = max(1, int(directive.get("length", 1)))
        first = max(0, int(directive.get("first", 0)))
        second = max(0, int(directive.get("second", 0)))
        if first > second:
            first, second = second, first
        block = min(block, second - first, length - second)
        if block <= 0:
            return
        for offset in range(block):
            a, b = first + offset, second + offset
            steps[a], steps[b] = steps[b], steps[a]
    elif op == "rotate":
        offset = int(directive.get("offset", 0)) % length
        if offset:
            steps[:] = steps[offset:] + steps[:offset]
    elif op == "stutter":
        start, end = _window(directive, length)
        times = max(2, int(directive.get("times", 2)))
        window = end - start
        unit = max(1, window // times)
        pattern = steps[start : start + unit]
        for index in range(start, end):
            steps[index] = pattern[(index - start) % unit]
    elif op == "crash":
        pid = int(directive.get("pid", 1))
        if not 1 <= pid <= n:
            raise ConfigurationError(f"crash mutation names process {pid} outside Πn")
        already = frozenset(crash_steps) | {pid}
        if len(already) >= n:
            return
        at = max(0, min(int(directive.get("at", 0)), length))
        crash_steps[pid] = min(at, crash_steps.get(pid, at))
    else:
        raise ConfigurationError(
            f"unknown mutation op {op!r}; expected one of {MUTATION_OPS}"
        )


def reference_enforce_crashes(steps, crash_steps, n):
    """``_enforce_crashes`` as a walk over every step."""
    if not crash_steps:
        return
    substitute = _substitute_for(frozenset(crash_steps), n)
    for index, pid in enumerate(steps):
        crash_at = crash_steps.get(pid)
        if crash_at is not None and index >= crash_at:
            steps[index] = substitute


def _directives(n, length):
    """Directives of every op, with windows and ids in and out of range."""
    # Small positions make near, overlapping and degenerate windows common.
    position = st.one_of(st.integers(-3, 8), st.integers(-3, length + 5))
    pid = st.integers(-1, n + 2)
    ops = [
        ("burst", {"pid": pid, "start": position, "length": position}),
        (
            "silence",
            {
                "pids": st.lists(st.integers(0, n + 2), max_size=n + 1),
                "start": position,
                "length": position,
                "substitute": pid,
            },
        ),
        ("swap", {"first": position, "second": position, "length": position}),
        # Blocks a few steps apart: overlapping requests, clamped to disjoint.
        (
            "swap",
            {"first": st.integers(0, 6), "second": st.integers(0, 6), "length": st.integers(1, 8)},
        ),
        ("rotate", {"offset": st.integers(-2 * length - 3, 2 * length + 3)}),
        ("stutter", {"start": position, "length": position, "times": st.integers(-1, 6)}),
        ("crash", {"pid": pid, "at": position}),
        ("teleport", {}),
    ]
    full = [st.fixed_dictionaries({"op": st.just(op), **params}) for op, params in ops]
    # Directives missing some parameters take the defaults.
    partial = st.sampled_from(ops).flatmap(
        lambda entry: st.fixed_dictionaries({"op": st.just(entry[0])}, optional=entry[1])
    )
    return st.one_of(*full, partial)


def _outcome(apply, enforce, steps, crash_steps, n, directives):
    """Buffer, crash steps and error text after applying ``directives``."""
    error = None
    try:
        for directive in directives:
            apply(steps, crash_steps, n, directive)
        enforce(steps, crash_steps, n)
    except ConfigurationError as raised:
        error = str(raised)
    return list(steps), dict(crash_steps), error


@st.composite
def _mutation_cases(draw):
    n = draw(st.integers(2, 5))
    length = draw(st.integers(0, 48))
    steps = draw(st.lists(st.integers(1, n), min_size=length, max_size=length))
    crash_steps = draw(
        st.dictionaries(st.integers(1, n), st.integers(0, length + 3), max_size=n)
    )
    directives = draw(st.lists(_directives(n, length), max_size=6))
    return n, steps, crash_steps, directives


class TestDirectivesMatchTheReferenceLoops:
    @settings(max_examples=150)
    @given(_mutation_cases())
    def test_lists_and_arrays_match_the_per_element_reference(self, case):
        n, steps, crash_steps, directives = case
        expected = _outcome(
            reference_apply_mutation, reference_enforce_crashes,
            list(steps), dict(crash_steps), n, directives,
        )
        for buffer in (list(steps), array("i", steps)):
            assert _outcome(
                apply_mutation, _enforce_crashes, buffer, dict(crash_steps), n, directives
            ) == expected

    def test_wide_systems_remap_without_the_byte_table(self):
        steps = array("i", [1, 300, 299, 300, 2] * 4)
        expected = list(steps)
        directive = {"op": "silence", "pids": [300], "start": 2, "length": 9}
        reference_apply_mutation(expected, {}, 300, directive)
        apply_mutation(steps, {}, 300, directive)
        assert list(steps) == expected
        crash_steps = {299: 3}
        reference_enforce_crashes(expected, crash_steps, 300)
        _enforce_crashes(steps, crash_steps, 300)
        assert list(steps) == expected
