"""Seeded random (asynchronous) schedule generation.

The uniform random scheduler models a benign asynchronous adversary: each
step schedules a process chosen independently at random among the alive ones
(optionally with non-uniform weights to model slow/fast processes).  Random
schedules carry no synchrony guarantee; they are used by property-based tests
and by experiments that need "arbitrary" schedules of the asynchronous system.
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Dict, Iterator, Mapping, Optional

from ..errors import ConfigurationError
from ..runtime.crash import CrashPattern
from ..types import ProcessId
from .base import ScheduleGenerator
from .segments import Segments

#: Draws per segment while no crash step is ahead (``choices`` draws eagerly).
_CHUNK = 1024


class RandomGenerator(ScheduleGenerator):
    """Schedule each step uniformly (or with weights) among alive processes.

    Parameters
    ----------
    n:
        Number of processes.
    seed:
        RNG seed — two generators with the same parameters emit the same
        schedule, which keeps experiments reproducible.
    weights:
        Optional relative scheduling weights per process (default 1.0 each).
        A weight of 0 silences a process without marking it crashed, which is
        occasionally useful for adversarial constructions; prefer a crash
        pattern when the process is meant to be faulty.
    crash_pattern:
        Crashed processes stop being scheduled from their crash step onward.
    """

    def __init__(
        self,
        n: int,
        seed: int = 0,
        weights: Optional[Mapping[ProcessId, float]] = None,
        crash_pattern: Optional[CrashPattern] = None,
    ) -> None:
        super().__init__(n, crash_pattern)
        self.seed = seed
        normalized: Dict[ProcessId, float] = {pid: 1.0 for pid in range(1, n + 1)}
        if weights is not None:
            for pid, weight in weights.items():
                if not 1 <= pid <= n:
                    raise ConfigurationError(f"weight given for unknown process {pid}")
                if weight < 0:
                    raise ConfigurationError(f"weight for process {pid} must be >= 0")
                normalized[pid] = float(weight)
        if all(weight == 0 for weight in normalized.values()):
            raise ConfigurationError("at least one process must have a positive weight")
        self.weights = normalized

    @classmethod
    def from_params(cls, params: dict) -> "RandomGenerator":
        """Build from JSON-normalized scenario parameters (``n``, ``seed``, ``weights``, crashes)."""
        n = int(params["n"])
        weights = params.get("weights")
        return cls(
            n,
            seed=int(params.get("seed", 0)),
            weights={int(pid): float(w) for pid, w in dict(weights).items()} if weights else None,
            crash_pattern=CrashPattern.from_params(n, params),
        )

    @property
    def description(self) -> str:
        """Provenance line: the seed."""
        return f"seeded random schedule (seed={self.seed})"

    def _emit(self) -> Iterator[ProcessId]:
        return chain.from_iterable(self._segments())

    def _segments(self) -> Segments:
        # ``choices(alive, weights, k=m)`` makes the same ``random()`` calls
        # as ``m`` calls with ``k=1``, so one call per segment keeps the
        # per-step stream.
        rng = random.Random(self.seed)
        schedulable = [pid for pid in range(1, self.n + 1) if self.weights[pid] > 0]
        step = 0
        while True:
            alive, until = self.crash_pattern.alive_span(schedulable, step)
            if not alive:
                raise ConfigurationError(
                    "random generator has no schedulable process left "
                    "(all crashed or zero-weighted)"
                )
            weights = [self.weights[pid] for pid in alive]
            count = min(until - step, _CHUNK)
            yield rng.choices(alive, weights=weights, k=count)
            step += count
