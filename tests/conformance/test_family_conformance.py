"""Every scenario family's one stream against its per-step oracle.

The families emit their steps as segments of C-level iterators between
crash steps (:mod:`repro.schedules.segments`).  This file pins, for the
seeded families and generated parameters — static crashes, mid-run crashes,
everyone crashing, orders, seeds, weights, chaos lengths and epoch growth:

* ``compile(L)``, ``generate(L)`` and ``stream()`` agree byte for byte, and
  raise the same :class:`~repro.errors.ConfigurationError` text at the same
  step index;
* each stream equals its per-step oracle below.  The oracles make real
  ``rng.choice``/``rng.choices`` calls, so a CPython change to ``Random``
  that the segment emitters do not follow fails here;
* no process steps at or after its crash step;
* once everyone has crashed, the stream fails before the last crash step
  with its oracle's error text.

The oracles are the per-step emitters the families had before they emitted
segments, with one fix: a carrier-rotation carrier that crashes mid-phase
hands the rest of its phase to the next alive carrier.
"""

import random
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conformance_support import CONFORMANCE, family_cases
from repro.errors import ConfigurationError
from repro.scenarios.spec import build_generator


def _round_robin_oracle(gen):
    step_index = 0
    while True:
        emitted_this_cycle = False
        for pid in gen.order:
            if gen.crash_pattern.is_crashed(pid, step_index):
                continue
            yield pid
            step_index += 1
            emitted_this_cycle = True
        if not emitted_this_cycle:
            raise ConfigurationError(
                "round-robin generator has no alive process left to schedule; "
                "crash pattern kills every process in the rotation"
            )


def _random_oracle(gen):
    rng = random.Random(gen.seed)
    step_index = 0
    while True:
        alive = [
            pid
            for pid in range(1, gen.n + 1)
            if not gen.crash_pattern.is_crashed(pid, step_index) and gen.weights[pid] > 0
        ]
        if not alive:
            raise ConfigurationError(
                "random generator has no schedulable process left "
                "(all crashed or zero-weighted)"
            )
        weights = [gen.weights[pid] for pid in alive]
        yield rng.choices(alive, weights=weights, k=1)[0]
        step_index += 1


def _eventually_synchronous_oracle(gen):
    rng = random.Random(gen.seed)
    step_index = 0
    while step_index < gen.chaos_steps:
        alive = [
            pid
            for pid in range(1, gen.n + 1)
            if not gen.crash_pattern.is_crashed(pid, step_index)
        ]
        if not alive:
            raise ConfigurationError("all processes crashed during the chaotic prefix")
        yield rng.choice(alive)
        step_index += 1
    while True:
        progressed = False
        for pid in range(1, gen.n + 1):
            if gen.crash_pattern.is_crashed(pid, step_index):
                continue
            yield pid
            step_index += 1
            progressed = True
        if not progressed:
            raise ConfigurationError("all processes crashed; nothing left to schedule")


def _carrier_rotation_oracle(gen):
    carriers = sorted(gen.carriers)
    is_crashed = gen.crash_pattern.is_crashed
    step_index = 0
    phase = 0
    carrier_cursor = 0
    while True:
        carrier = carriers[carrier_cursor % len(carriers)]
        for _ in range(gen.base_phase + phase * gen.phase_growth):
            # Checked before every carrier step: a carrier that crashed
            # mid-phase hands the rest of the phase to the next alive one.
            attempts = 0
            while is_crashed(carrier, step_index):
                carrier_cursor += 1
                attempts += 1
                carrier = carriers[carrier_cursor % len(carriers)]
                if attempts > len(carriers):
                    raise ConfigurationError("all carriers have crashed mid-schedule")
            yield carrier
            step_index += 1
        for pid in range(1, gen.n + 1):
            if pid == carrier or is_crashed(pid, step_index):
                continue
            yield pid
            step_index += 1
        phase += 1
        carrier_cursor += 1


def _alternating_epochs_oracle(gen):
    rng = random.Random(gen.seed)
    is_crashed = gen.crash_pattern.is_crashed
    step_index = 0
    epoch = 0
    while True:
        growth = epoch * gen.epoch_growth
        emitted = 0
        target = gen.sync_epoch + growth
        while emitted < target:
            progressed = False
            for pid in range(1, gen.n + 1):
                if is_crashed(pid, step_index):
                    continue
                yield pid
                step_index += 1
                emitted += 1
                progressed = True
                if emitted >= target:
                    break
            if not progressed:
                raise ConfigurationError("alternating-epochs scenario has no alive process left")
        for _ in range(gen.async_epoch + growth):
            alive = [pid for pid in range(1, gen.n + 1) if not is_crashed(pid, step_index)]
            if not alive:
                raise ConfigurationError("alternating-epochs scenario has no alive process left")
            yield rng.choice(alive)
            step_index += 1
        epoch += 1


def _set_timely_oracle(gen):
    """The set-timely stream with the full filler-attempt loop after every carrier step.

    ``SetTimelyGenerator._emit`` stops drawing fillers once every filler has
    crashed, and binds its hot loop to locals; this is the plain loop.
    """
    rng = random.Random(gen.seed)
    is_crashed = gen.crash_pattern.is_crashed
    carriers = sorted(gen.p_set)
    fillers = sorted(frozenset(range(1, gen.n + 1)) - gen.p_set)
    filler_cursor = 0
    step_index = 0
    phase = 0
    carrier_index = 0
    while True:
        carrier = carriers[carrier_index % len(carriers)]
        for _ in range(gen.base_phase + phase * gen.phase_growth):
            attempts = 0
            while is_crashed(carrier, step_index):
                carrier_index += 1
                attempts += 1
                carrier = carriers[carrier_index % len(carriers)]
                if attempts > len(carriers):
                    raise ConfigurationError(
                        "all members of P have crashed; cannot maintain the guarantee"
                    )
            yield carrier
            step_index += 1
            emitted = 0
            guard = 0
            while emitted < gen.bound - 1 and fillers:
                guard += 1
                if guard > 4 * len(fillers) + 8:
                    break
                if rng.random() < 0.5:
                    candidate = rng.choice(fillers)
                else:
                    candidate = fillers[filler_cursor % len(fillers)]
                    filler_cursor += 1
                if is_crashed(candidate, step_index):
                    continue
                yield candidate
                step_index += 1
                emitted += 1
        for burst_pid in sorted(gen.burst_set):
            for _ in range(gen.burst_base + phase * gen.burst_growth):
                if is_crashed(burst_pid, step_index):
                    break
                yield burst_pid
                step_index += 1
        phase += 1
        carrier_index += 1


ORACLES = {
    "round-robin": _round_robin_oracle,
    "random": _random_oracle,
    "eventually-synchronous": _eventually_synchronous_oracle,
    "carrier-rotation": _carrier_rotation_oracle,
    "alternating-epochs": _alternating_epochs_oracle,
    "set-timely": _set_timely_oracle,
}

#: Every family this file covers; crash-churn (per-step outages) has no oracle.
FAMILIES = [*ORACLES, "crash-churn"]

#: Families that admit every process crashing (carrier-rotation and
#: set-timely reject a pattern that kills every carrier or all of ``P``).
EVERYONE_MAY_CRASH = [f for f in FAMILIES if f not in ("carrier-rotation", "set-timely")]


def _build(params):
    """The family's generator, or ``None`` when the parameters are invalid."""
    try:
        return build_generator(params)
    except ConfigurationError:
        return None


def _observe(steps, length):
    """Up to ``length`` steps of ``steps``, and the error text that cut them short."""
    taken = []
    try:
        taken.extend(islice(steps, length))
    except ConfigurationError as error:
        return taken, str(error)
    return taken, None


def _prefix(params, method, length):
    """``method``'s first ``length`` steps on a fresh generator, or its error text."""
    try:
        return list(getattr(build_generator(params), method)(length).steps), None
    except ConfigurationError as error:
        return None, str(error)


def _check_paths_agree(params, length):
    """``compile``, ``generate`` and ``stream`` give the same steps or the same error."""
    streamed, error = _observe(build_generator(params).stream(), length)
    for method in ("compile", "generate"):
        if error is None:
            assert _prefix(params, method, length) == (streamed, None)
        else:
            # The error comes when step len(streamed) is requested, on every path.
            assert _prefix(params, method, length) == (None, error)
            assert _prefix(params, method, len(streamed)) == (streamed, None)


def _check_oracle(params, length):
    assert _observe(build_generator(params).stream(), length) == _observe(
        ORACLES[params["schedule"]](build_generator(params)), length
    )


def _check_no_late_step(params, length):
    generator = build_generator(params)
    steps, _ = _observe(generator.stream(), length)
    crash_steps = generator.crash_pattern.crash_steps
    late = [
        (index, pid)
        for index, pid in enumerate(steps)
        if pid in crash_steps and index >= crash_steps[pid]
    ]
    assert late == []


@pytest.mark.parametrize("family", FAMILIES)
@CONFORMANCE
@given(data=st.data())
def test_compile_generate_and_stream_agree(family, data):
    params, length = data.draw(family_cases(family))
    if _build(params) is not None:
        _check_paths_agree(params, length)


@pytest.mark.parametrize("family", list(ORACLES))
@CONFORMANCE
@given(data=st.data())
def test_stream_matches_per_step_oracle(family, data):
    params, length = data.draw(family_cases(family))
    if _build(params) is not None:
        _check_oracle(params, length)


@pytest.mark.parametrize("family", FAMILIES)
@CONFORMANCE
@given(data=st.data())
def test_no_step_at_or_after_crash(family, data):
    params, length = data.draw(family_cases(family))
    if _build(params) is not None:
        _check_no_late_step(params, length)


@pytest.mark.parametrize("family", EVERYONE_MAY_CRASH)
@CONFORMANCE
@given(data=st.data())
def test_everyone_crashed_fails_like_the_oracle(family, data):
    params, length = data.draw(family_cases(family))
    params.pop("crashes", None)
    params["crash_steps"] = {
        str(pid): data.draw(st.integers(0, length)) for pid in range(1, params["n"] + 1)
    }
    generator = _build(params)
    if generator is None:
        return
    last_crash = max(generator.crash_pattern.crash_steps.values())
    steps, error = _observe(generator.stream(), last_crash + 1)
    # Nobody may take step ``last_crash``, so the stream must fail by then.
    assert error is not None
    assert len(steps) <= last_crash
    if family in ORACLES:
        assert (steps, error) == _observe(
            ORACLES[family](build_generator(params)), last_crash + 1
        )


#: Hand-picked corners the generated cases reach rarely, checked on every path.
PINNED = [
    # Carrier 1 crashes inside its first phase: carrier 2 takes the rest of
    # the phase, and the boundary block skips it.
    ({"schedule": "carrier-rotation", "n": 4, "carriers": [1, 2, 3],
      "crash_steps": {"1": 2}}, 12),
    ({"schedule": "carrier-rotation", "n": 5, "carriers": [2, 4],
      "crash_steps": {"4": 13, "1": 12, "3": 40}}, 300),
    # Process 4 crashes inside the first boundary block (2@4, 3@5, 5@6).
    ({"schedule": "carrier-rotation", "n": 5, "carriers": [1],
      "crash_steps": {"4": 6}}, 60),
    # Crashes right where the rotation cursor wraps.
    ({"schedule": "round-robin", "n": 5, "order": [3, 1, 5],
      "crash_steps": {"1": 7, "5": 8}}, 40),
    ({"schedule": "round-robin", "n": 3, "crash_steps": {"1": 4, "2": 9, "3": 9}}, 20),
    ({"schedule": "eventually-synchronous", "n": 4, "chaos_steps": 20, "seed": 3,
      "crash_steps": {"1": 5, "4": 30}}, 80),
    ({"schedule": "alternating-epochs", "n": 3, "sync_epoch": 5, "async_epoch": 4,
      "epoch_growth": 2, "seed": 8, "crash_steps": {"2": 3, "3": 11}}, 60),
    # Weighted draws across the eager ``choices`` chunk boundary, with and
    # without a crash past it.
    ({"schedule": "random", "n": 3, "seed": 4, "weights": {"1": 0.5, "3": 2.5}}, 3000),
    ({"schedule": "random", "n": 3, "seed": 4, "crash_steps": {"2": 1500}}, 3000),
]


@pytest.mark.parametrize(
    "params, length", PINNED, ids=[f"{params['schedule']}-{i}" for i, (params, _) in enumerate(PINNED)]
)
def test_pinned_case(params, length):
    _check_paths_agree(params, length)
    _check_oracle(params, length)
    _check_no_late_step(params, length)


def test_mid_phase_carrier_crash_hands_the_phase_over():
    params = PINNED[0][0]
    assert build_generator(params).generate(12).steps == (1, 1, 2, 2, 3, 4, 3, 3, 3, 3, 3, 3)
