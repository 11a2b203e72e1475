"""Adversarial schedule generators used by the separation experiments (E4).

The impossibility side of Theorems 26 and 27 cannot be "run", but the proofs
are constructive about *which schedules* defeat any would-be algorithm.  The
generators here realize those schedule families so that experiments can show
the paper's own machinery failing to stabilize on them:

* :class:`CarrierRotationAdversary` — a set ``C`` of carriers supplies almost
  all steps, but in rotation with ever-growing phases, and every other process
  steps only at phase boundaries.  The full carrier set is timely with respect
  to ``Πn``, yet **no proper subset of the carriers — and no set missing a
  carrier — is timely**, because whenever the missing carrier holds the baton
  the set is silent for a whole (growing) phase while steps keep accumulating.
  With ``|C| = k`` and ``n = k + 1`` this produces schedules of
  ``S^k_{t+1,n}`` (``t = k``) on which the ``(k-1)``-anti-Ω machinery needed
  for ``(t, k-1, n)``-agreement cannot stabilize — the empirical face of the
  separation ``S^k_{t+1,n}`` solves ``(t,k,n)`` but not ``(t,k-1,n)``.

* :class:`EventuallySynchronousGenerator` — arbitrary (seeded random) behaviour
  for a finite prefix, then round-robin forever.  This is the classical
  DLS-style eventual synchrony, used as a sanity baseline: every correct
  process is eventually timely, so even single-process-timeliness machinery
  converges.
"""

from __future__ import annotations

import random
from itertools import chain, repeat
from typing import Iterator, Optional, Sequence

from ..errors import ConfigurationError
from ..runtime.crash import CrashPattern
from ..types import ProcessId, ProcessSet, process_set
from .base import ScheduleGenerator, SynchronyGuarantee
from .segments import FOREVER, Segments, rotation, sweep, uniform


class CarrierRotationAdversary(ScheduleGenerator):
    """Growing-phase carrier rotation with boundary-only bystanders.

    Phase ``m`` (0-based): the current carrier ``c_m`` (rotating through the
    carrier set in id order) takes ``base_phase + m * phase_growth``
    consecutive steps; then every other alive process takes exactly one step
    (the *boundary block*), and the next phase starts with the next carrier.
    A carrier that crashes mid-phase hands the rest of its phase to the next
    alive carrier, which the boundary block then skips.

    Structural guarantees (all by construction):

    * the carrier set ``C`` is timely with respect to ``Πn`` with bound
      ``n - |C| + 1`` (a ``C``-free run can only be part of a boundary block,
      which contains at most ``n - |C|`` non-carrier steps);
    * every set ``A`` with ``C ⊄ A`` is **not** timely with respect to any set
      ``Q`` that contains a carrier outside ``A``: phases whose carrier is in
      ``Q \\ A`` contain unboundedly many ``Q``-steps and no ``A``-step;
    * every non-crashed process takes infinitely many steps (boundary blocks).
    """

    def __init__(
        self,
        n: int,
        carriers: Sequence[ProcessId] | ProcessSet,
        base_phase: int = 4,
        phase_growth: int = 2,
        crash_pattern: Optional[CrashPattern] = None,
    ) -> None:
        super().__init__(n, crash_pattern)
        self.carriers = process_set(carriers)
        if not self.carriers:
            raise ConfigurationError("the adversary needs at least one carrier")
        for pid in self.carriers:
            if not 1 <= pid <= n:
                raise ConfigurationError(f"carrier {pid} outside Πn = {{1..{n}}}")
        if base_phase < 1 or phase_growth < 1:
            raise ConfigurationError("base_phase and phase_growth must be >= 1")
        if not (self.carriers - self.faulty):
            raise ConfigurationError("the crash pattern kills every carrier")
        self.base_phase = base_phase
        self.phase_growth = phase_growth

    @classmethod
    def from_params(cls, params: dict) -> "CarrierRotationAdversary":
        """Build from JSON-normalized scenario parameters (``n``, ``carriers``, phases, crashes)."""
        n = int(params["n"])
        return cls(
            n=n,
            carriers=frozenset(int(c) for c in params["carriers"]),
            base_phase=int(params.get("base_phase", 4)),
            phase_growth=int(params.get("phase_growth", 2)),
            crash_pattern=CrashPattern.from_params(n, params),
        )

    @property
    def description(self) -> str:
        """Provenance line: carriers, phase lengths and crash pattern."""
        return (
            f"carrier-rotation adversary: carriers={sorted(self.carriers)}, "
            f"growing phases ({self.base_phase}+{self.phase_growth}m), "
            f"{self.crash_pattern.describe()}"
        )

    def guarantee(self) -> SynchronyGuarantee:
        """The carrier set is timely w.r.t. ``Πn`` with bound ``n - |C| + 1``."""
        return SynchronyGuarantee(
            p_set=self.carriers,
            q_set=frozenset(range(1, self.n + 1)),
            bound=self.n - len(self.carriers) + 1 if self.n > len(self.carriers) else 1,
        )

    def starved_sets_claim(self) -> str:
        """Textual statement of which sets the adversary starves (for reports)."""
        return (
            "every process set that does not contain all carriers "
            f"{sorted(self.carriers)} has unbounded step gaps relative to any "
            "reference set containing a missing carrier"
        )

    def _emit(self) -> Iterator[ProcessId]:
        return chain.from_iterable(self._segments())

    def _segments(self) -> Segments:
        carriers = sorted(self.carriers)
        everyone = range(1, self.n + 1)
        alive_span = self.crash_pattern.alive_span
        step = 0
        phase = 0
        carrier_cursor = 0
        while True:
            remaining = self.base_phase + phase * self.phase_growth
            while remaining:
                # The carrier steps until its crash step; a crashed carrier
                # hands the rest of the phase to the next alive one.
                for _ in carriers:
                    alive, until = alive_span((carriers[carrier_cursor % len(carriers)],), step)
                    if alive:
                        break
                    carrier_cursor += 1
                else:
                    raise ConfigurationError("all carriers have crashed mid-schedule")
                carrier = alive[0]
                count = min(remaining, until - step)
                yield repeat(carrier, count)
                step += count
                remaining -= count
            step = yield from sweep(
                self.crash_pattern, [pid for pid in everyone if pid != carrier], step
            )
            phase += 1
            carrier_cursor += 1


class EventuallySynchronousGenerator(ScheduleGenerator):
    """Chaotic for a finite prefix, perfectly round-robin afterwards.

    Models the classical partially synchronous assumption ("after an unknown
    global stabilization time the system behaves synchronously") inside the
    paper's schedule formalism.  After ``chaos_steps`` random steps the
    generator settles into a round-robin of the alive processes, so every
    correct process is individually timely from that point on.
    """

    def __init__(
        self,
        n: int,
        chaos_steps: int = 200,
        seed: int = 0,
        crash_pattern: Optional[CrashPattern] = None,
    ) -> None:
        super().__init__(n, crash_pattern)
        if chaos_steps < 0:
            raise ConfigurationError(f"chaos_steps must be non-negative, got {chaos_steps}")
        self.chaos_steps = chaos_steps
        self.seed = seed

    @classmethod
    def from_params(cls, params: dict) -> "EventuallySynchronousGenerator":
        """Build from JSON-normalized scenario parameters (``n``, ``chaos_steps``, ``seed``, crashes)."""
        n = int(params["n"])
        return cls(
            n,
            chaos_steps=int(params.get("chaos_steps", 200)),
            seed=int(params.get("seed", 0)),
            crash_pattern=CrashPattern.from_params(n, params),
        )

    @property
    def description(self) -> str:
        """Provenance line: chaos length, seed and crash pattern."""
        return (
            f"eventually synchronous (chaotic for {self.chaos_steps} steps, seed={self.seed}, "
            f"{self.crash_pattern.describe()})"
        )

    def guarantee(self) -> Optional[SynchronyGuarantee]:
        """The correct processes are (eventually) timely w.r.t. ``Πn``.

        The reported bound covers the worst case across the chaotic prefix as
        well: no window ever contains more than ``chaos_steps + n`` steps
        without a step of every correct process once the synchronous phase is
        reached, so the bound below is valid for the whole schedule.
        """
        correct = frozenset(range(1, self.n + 1)) - self.faulty
        if not correct:
            return None
        return SynchronyGuarantee(
            p_set=correct,
            q_set=frozenset(range(1, self.n + 1)),
            bound=self.chaos_steps + self.n,
        )

    def _emit(self) -> Iterator[ProcessId]:
        return chain.from_iterable(self._segments())

    def _segments(self) -> Segments:
        everyone = range(1, self.n + 1)
        step = yield from uniform(
            self.crash_pattern,
            everyone,
            random.Random(self.seed),
            0,
            self.chaos_steps,
            "all processes crashed during the chaotic prefix",
        )
        yield from rotation(
            self.crash_pattern,
            everyone,
            step,
            FOREVER,
            "all processes crashed; nothing left to schedule",
        )
