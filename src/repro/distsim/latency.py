"""Pluggable message-latency models for the discrete-event engine.

A latency model turns a per-channel RNG stream and the current simulated time
into a positive integer delivery delay.  Models are registered by name so
workload families (and campaign parameter grids) can select them with a plain
string — the same convention the scenario-family and backend registries use.

Registered models:

``constant``
    Every message takes exactly ``scale`` time units.
``uniform``
    Uniform over ``[scale, scale + spread]``.
``exponential``
    Exponential with mean ``scale`` (rounded up to at least 1) — the classic
    memoryless network.
``pareto``
    Heavy-tailed Pareto with shape ``alpha`` and minimum ``scale``: most
    messages are fast, a few are catastrophically slow.  Small ``alpha``
    (below 2) makes the tail heavy enough to break per-process timeliness
    while a *set* of receivers stays timely — the E12 emergence axis.

Any model can additionally be modulated diurnally (``period`` > 0): the
sampled delay is scaled by a triangle wave between ``1`` and
``1 + amplitude``, peaking mid-period, which models the daily load swing of a
production network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping

from ..errors import ConfigurationError


@dataclass(frozen=True)
class LatencyModel:
    """A named latency distribution with optional diurnal modulation.

    ``sampler`` maps ``(rng, now)`` to a raw delay; the model clamps the
    result to an integer of at least 1 and applies the diurnal factor.
    """

    name: str
    sampler: Callable[[random.Random, int], float]
    detail: str
    period: int = 0
    amplitude: float = 0.0

    def diurnal_factor(self, now: int) -> float:
        """The triangle-wave load factor at simulated time ``now`` (≥ 1.0)."""
        if self.period <= 0 or self.amplitude <= 0:
            return 1.0
        phase = (now % self.period) / self.period
        triangle = 1.0 - abs(2.0 * phase - 1.0)  # 0 at period edges, 1 mid-period
        return 1.0 + self.amplitude * triangle

    def sample(self, rng: random.Random, now: int) -> int:
        """Draw one delivery delay (a positive integer) at time ``now``."""
        raw = self.sampler(rng, now) * self.diurnal_factor(now)
        return max(1, int(round(raw)))

    def fixed_delay(self) -> int:
        """The delay :meth:`sample` always returns, or 0 when it samples one.

        A ``constant`` model without diurnal modulation delays every message
        by the same amount and draws nothing from the channel's stream, so a
        caller can bind the delay once.
        """
        if self.name != "constant" or (self.period > 0 and self.amplitude > 0):
            return 0
        return self.sample(None, 0)

    def describe(self) -> str:
        """Readable summary, e.g. ``"pareto(scale=3, alpha=1.6)"``."""
        text = f"{self.name}({self.detail})"
        if self.period > 0 and self.amplitude > 0:
            text += f" diurnal(period={self.period}, amplitude={self.amplitude:g})"
        return text


def _build_constant(scale: int, spread: int, alpha: float) -> Callable[[random.Random, int], float]:
    return lambda rng, now: float(scale)


def _build_uniform(scale: int, spread: int, alpha: float) -> Callable[[random.Random, int], float]:
    return lambda rng, now: rng.uniform(scale, scale + spread)


def _build_exponential(scale: int, spread: int, alpha: float) -> Callable[[random.Random, int], float]:
    return lambda rng, now: rng.expovariate(1.0 / max(scale, 1))


def _build_pareto(scale: int, spread: int, alpha: float) -> Callable[[random.Random, int], float]:
    return lambda rng, now: scale * rng.paretovariate(alpha)


_MODELS: Dict[str, Callable[[int, int, float], Callable[[random.Random, int], float]]] = {
    "constant": _build_constant,
    "uniform": _build_uniform,
    "exponential": _build_exponential,
    "pareto": _build_pareto,
}


def available_latency_models() -> List[str]:
    """Names of all registered latency models, sorted."""
    return sorted(_MODELS)


def latency_from_params(params: Mapping[str, object]) -> LatencyModel:
    """Build a :class:`LatencyModel` from JSON-normalized workload parameters.

    Recognized keys (all optional): ``latency`` (model name, default
    ``"constant"``), ``latency_scale`` (default 2), ``latency_spread``
    (uniform width, default equals the scale), ``latency_alpha`` (Pareto
    shape, default 1.6), ``latency_period`` / ``latency_amplitude`` (diurnal
    modulation, default off).  Unknown model names fail with the full list.
    """
    name = str(params.get("latency", "constant"))
    builder = _MODELS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown latency model {name!r}; registered: {available_latency_models()}"
        )
    scale = int(params.get("latency_scale", 2))
    if scale < 1:
        raise ConfigurationError(f"latency_scale must be >= 1, got {scale}")
    spread = int(params.get("latency_spread", scale))
    if spread < 0:
        raise ConfigurationError(f"latency_spread must be >= 0, got {spread}")
    alpha = float(params.get("latency_alpha", 1.6))
    if alpha <= 0:
        raise ConfigurationError(f"latency_alpha must be > 0, got {alpha}")
    period = int(params.get("latency_period", 0))
    amplitude = float(params.get("latency_amplitude", 0.0))
    if period < 0 or amplitude < 0:
        raise ConfigurationError(
            f"diurnal modulation needs period >= 0 and amplitude >= 0, "
            f"got period={period}, amplitude={amplitude}"
        )
    if name == "constant":
        detail = f"scale={scale}"
    elif name == "uniform":
        detail = f"scale={scale}, spread={spread}"
    elif name == "exponential":
        detail = f"scale={scale}"
    else:
        detail = f"scale={scale}, alpha={alpha:g}"
    return LatencyModel(
        name=name,
        sampler=builder(scale, spread, alpha),
        detail=detail,
        period=period,
        amplitude=amplitude,
    )
