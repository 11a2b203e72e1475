"""Generators that enforce a set-timeliness guarantee by construction.

Experiments E2 and E3 need schedules that are *certified* members of a chosen
``S^i_{j,n}``: some set ``P`` of size ``i`` must be timely with respect to a
set ``Q`` of size ``j`` with a known bound, while the schedule is otherwise as
adversarial as we can make it — in particular, no *individual* member of ``P``
should be timely (otherwise the classical single-leader machinery would
suffice and the experiment would not exercise set timeliness at all).

:class:`SetTimelyGenerator` achieves this with a carrier rotation inspired by
Figure 1: time is divided into phases of growing length; in each phase one
member of ``P`` (the *carrier*) supplies all of ``P``'s steps, and between
consecutive carrier steps at most ``bound - 1`` steps of other processes are
scheduled.  Consequences, by construction:

* every maximal ``P``-free run contains at most ``bound - 1`` steps of
  processes outside ``P`` — hence at most ``bound - 1`` ``Q``-steps — so ``P``
  is timely with respect to *any* ``Q`` (in particular the configured one)
  with bound ``bound``;
* each individual member of ``P`` is silent for entire phases whose length
  grows without bound, so it is not timely with respect to any set containing
  a process that keeps stepping;
* every non-crashed process outside ``P`` takes infinitely many steps (the
  filler rotation cycles through all of them).

After each carrier step the generator makes up to ``4 * |fillers| + 8``
attempts to place a filler (a process outside ``P``); each attempt consumes
the RNG and lands on a crashed process or emits.  Once every filler has
crashed — from the latest filler crash step on — the attempts are skipped.
This is exact, not an approximation: crashes are permanent, so no later
attempt could emit, and the RNG and the rotation cursor are only ever
observed through emitted fillers.  Every prefix is byte-identical to the
one the full attempt loop produces, for static and dynamic crash patterns
alike.  (E2's ``crashes={4,5}`` runs, with ``P={1,2,3}``, are the case this
serves: both fillers are dead from step 0.)

Crashes are honoured mid-phase too: a carrier that crashes hands the rest of
its phase to the next alive member of ``P``, and a burst stops at its
process's crash step, so no process steps at or after its crash step.
"""

from __future__ import annotations

import random
import sys
from typing import Iterator, List, Optional, Sequence

from ..errors import ConfigurationError
from ..runtime.crash import CrashPattern
from ..types import ProcessId, ProcessSet, process_set
from .base import ScheduleGenerator, SynchronyGuarantee


class SetTimelyGenerator(ScheduleGenerator):
    """Schedules in which ``P`` is timely w.r.t. ``Q`` with a configured bound.

    Parameters
    ----------
    n:
        Number of processes.
    p_set:
        The set whose timeliness is guaranteed (size ``i`` of ``S^i_{j,n}``).
    q_set:
        The reference set (size ``j``).  Only used for the reported guarantee —
        the construction actually makes ``P`` timely with respect to every set.
    bound:
        Guaranteed timeliness bound (must be at least 2; a bound of 1 would
        mean every single ``Q``-step is a ``P``-step, which contradicts letting
        non-``P`` processes run at all).
    seed:
        Seed for the randomized filler choice (fillers are drawn uniformly
        among alive non-``P`` processes, with a deterministic fallback rotation
        guaranteeing everyone steps infinitely often).
    crash_pattern:
        Prescribed failures.  At least one member of ``P`` must stay correct,
        otherwise the guarantee cannot hold and construction fails fast.
    base_phase, phase_growth:
        Phase ``m`` (0-based) gives the carrier ``base_phase + m * phase_growth``
        carrier steps before rotating.  Growth must be positive so individual
        members of ``P`` are not timely.
    burst_set, burst_base, burst_growth:
        Optional set of processes that additionally receive a growing *burst*
        of consecutive steps at the end of every phase (``burst_base +
        phase * burst_growth`` steps each).  Burst processes must be disjoint
        from both ``P`` and ``Q``: the bursts then leave the guarantee intact
        (a ``P``-free run still contains at most ``bound - 1`` ``Q``-steps)
        while making ``P`` *not* timely with respect to the burst processes —
        the ingredient the accusation-statistic ablation (A1) needs.
    """

    def __init__(
        self,
        n: int,
        p_set: Sequence[ProcessId] | ProcessSet,
        q_set: Sequence[ProcessId] | ProcessSet,
        bound: int = 3,
        seed: int = 0,
        crash_pattern: Optional[CrashPattern] = None,
        base_phase: int = 4,
        phase_growth: int = 2,
        burst_set: Sequence[ProcessId] | ProcessSet = frozenset(),
        burst_base: int = 0,
        burst_growth: int = 0,
    ) -> None:
        super().__init__(n, crash_pattern)
        self.p_set = process_set(p_set)
        self.q_set = process_set(q_set)
        if not self.p_set:
            raise ConfigurationError("P must be non-empty")
        if not self.q_set:
            raise ConfigurationError("Q must be non-empty")
        for pid in self.p_set | self.q_set:
            if not 1 <= pid <= n:
                raise ConfigurationError(f"process {pid} outside Πn = {{1..{n}}}")
        if bound < 2:
            raise ConfigurationError(f"timeliness bound must be >= 2, got {bound}")
        if base_phase < 1 or phase_growth < 1:
            raise ConfigurationError("base_phase and phase_growth must be >= 1")
        if not (self.p_set - self.faulty):
            raise ConfigurationError(
                "the crash pattern kills every member of P; the set-timeliness "
                "guarantee cannot hold in such a schedule"
            )
        self.bound = bound
        self.seed = seed
        self.base_phase = base_phase
        self.phase_growth = phase_growth
        self.burst_set = process_set(burst_set)
        if self.burst_set & self.p_set:
            raise ConfigurationError("burst processes must not be members of P")
        if self.burst_set & self.q_set:
            raise ConfigurationError(
                "burst processes must not be members of Q: unbounded bursts of "
                "Q-steps would void the set-timeliness guarantee"
            )
        for pid in self.burst_set:
            if not 1 <= pid <= n:
                raise ConfigurationError(f"burst process {pid} outside Πn = {{1..{n}}}")
        if self.burst_set and (burst_base < 1 and burst_growth < 1):
            raise ConfigurationError("a burst set needs burst_base >= 1 or burst_growth >= 1")
        self.burst_base = burst_base
        self.burst_growth = burst_growth

    # ------------------------------------------------------------------
    @classmethod
    def from_params(cls, params: dict) -> "SetTimelyGenerator":
        """Build from JSON-normalized scenario parameters.

        Requires ``n``, ``p_set`` and ``q_set``; ``bound``, ``seed``, crash
        and burst parameters are optional with the constructor defaults.
        """
        n = int(params["n"])
        return cls(
            n=n,
            p_set=frozenset(int(p) for p in params["p_set"]),
            q_set=frozenset(int(q) for q in params["q_set"]),
            bound=int(params.get("bound", 3)),
            seed=int(params.get("seed", 0)),
            crash_pattern=CrashPattern.from_params(n, params),
            base_phase=int(params.get("base_phase", 4)),
            phase_growth=int(params.get("phase_growth", 2)),
            burst_set=frozenset(int(b) for b in params.get("burst_set") or []),
            burst_base=int(params.get("burst_base", 0)),
            burst_growth=int(params.get("burst_growth", 0)),
        )

    @property
    def description(self) -> str:
        """Provenance line: ``P``, ``Q``, bound, seed and crash pattern."""
        p = sorted(self.p_set)
        q = sorted(self.q_set)
        return (
            f"set-timely schedule: P={p} timely w.r.t. Q={q} "
            f"(bound={self.bound}, seed={self.seed}, {self.crash_pattern.describe()})"
        )

    def guarantee(self) -> SynchronyGuarantee:
        """``P`` timely w.r.t. ``Q`` with the configured bound (holds by construction)."""
        return SynchronyGuarantee(p_set=self.p_set, q_set=self.q_set, bound=self.bound)

    # ------------------------------------------------------------------
    def _phase_length(self, phase: int) -> int:
        return self.base_phase + phase * self.phase_growth

    def _emit(self) -> Iterator[ProcessId]:
        # This generator is the hot inner loop of every campaign run, so the
        # per-step work is flattened into local bindings.  The emitted stream
        # is byte-identical to the straightforward formulation for any seed:
        # the RNG is consumed in exactly the same call sequence
        # (``random()`` for the coin, ``getrandbits``-rejection — the
        # algorithm inside ``Random.choice`` — for the filler draw).
        rng = random.Random(self.seed)
        rng_random = rng.random
        getrandbits = rng.getrandbits
        crash_pattern = self.crash_pattern
        is_crashed = crash_pattern.is_crashed
        # Static patterns (failure-free / initial crashes) allow a set lookup
        # instead of a method call per candidate.
        static_dead = crash_pattern.faulty if crash_pattern.is_static else None
        carriers: List[ProcessId] = sorted(self.p_set)
        fillers: List[ProcessId] = sorted(frozenset(range(1, self.n + 1)) - self.p_set)
        n_fillers = len(fillers)
        filler_bits = n_fillers.bit_length()
        filler_budget = self.bound - 1
        guard_limit = 4 * n_fillers + 8
        # From this step on every filler has crashed (``None``: some filler
        # is correct), so no filler attempt can emit any more.  The RNG and
        # the rotation cursor are only ever observed through emitted
        # fillers, so skipping the attempts leaves the stream unchanged.
        crash_steps = crash_pattern.crash_steps
        fillers_gone_at = (
            max((crash_steps[pid] for pid in fillers), default=0)
            if all(pid in crash_steps for pid in fillers)
            else None
        )
        filler_cursor = 0
        step_index = 0
        phase = 0
        carrier_index = 0
        never = sys.maxsize

        while True:
            carrier = carriers[carrier_index % len(carriers)]
            remaining = self._phase_length(phase)
            # The step from which the carrier is crashed (``never`` for a
            # correct one; -1 picks it at the phase's first step): a carrier
            # that crashes mid-phase hands the rest of the phase to the next
            # alive member of P.
            carrier_stop = -1
            while remaining > 0:
                if step_index >= carrier_stop:
                    # Skip carriers that have crashed; if none is alive the
                    # constructor guarantee was violated, so fail loudly.
                    attempts = 0
                    while is_crashed(carrier, step_index):
                        carrier_index += 1
                        attempts += 1
                        carrier = carriers[carrier_index % len(carriers)]
                        if attempts > len(carriers):
                            raise ConfigurationError(
                                "all members of P have crashed; cannot maintain the guarantee"
                            )
                    carrier_stop = crash_steps.get(carrier, never)
                # One carrier step keeps P's timeliness alive ...
                yield carrier
                step_index += 1
                remaining -= 1
                if fillers_gone_at is not None and step_index >= fillers_gone_at:
                    continue
                # ... followed by at most (bound - 1) filler steps.
                emitted = 0
                guard = 0
                while emitted < filler_budget and n_fillers:
                    guard += 1
                    if guard > guard_limit:
                        break
                    if rng_random() < 0.5:
                        # Inlined ``rng.choice(fillers)``: rejection sampling
                        # over getrandbits, consuming the same RNG stream.
                        draw = getrandbits(filler_bits)
                        while draw >= n_fillers:
                            draw = getrandbits(filler_bits)
                        candidate = fillers[draw]
                    else:
                        candidate = fillers[filler_cursor % n_fillers]
                        filler_cursor += 1
                    if (
                        candidate in static_dead
                        if static_dead is not None
                        else is_crashed(candidate, step_index)
                    ):
                        continue
                    yield candidate
                    step_index += 1
                    emitted += 1
            # End-of-phase bursts: unbounded (growing) runs of the burst
            # processes, each cut at its process's crash step.  They contain
            # no Q-step, so the guarantee holds.
            if self.burst_set:
                burst_length = self.burst_base + phase * self.burst_growth
                for burst_pid in sorted(self.burst_set):
                    length = min(burst_length, crash_steps.get(burst_pid, never) - step_index)
                    for _ in range(length):
                        yield burst_pid
                        step_index += 1
            phase += 1
            carrier_index += 1
