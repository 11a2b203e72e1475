"""Certification: is a candidate schedule inside the model it claims to attack?

A failed property on an arbitrary mutated schedule proves nothing about the
paper — the theorems only quantify over schedules of ``S^k_{t+1,n}`` with at
most ``t`` crashes.  Every surviving candidate therefore passes through
:func:`certify_schedule`, which re-validates it against the
:class:`~repro.core.systems.SetTimelinessSystem` membership machinery and
renders an explicit verdict: *in-model* (a property failure here would
falsify the paper's claim) or *out-of-model*, with the reason (too many
crashes, observed timeliness bound above the certification bound, or a
saturated witness — the prefix contains no timeliness evidence at all).

Certification on a finite prefix is necessarily bound-relative: any finite
schedule is trivially in ``S^i_{j,n}`` for a large enough bound, so the
engine certifies against an explicit ``certify_bound`` (defaulting to a small
multiple of the seed scenarios' constructed bound).  The same machinery
doubles as the ``timeliness-bound`` fitness function: the best witness's
evidence ratio is exactly "how far from set-timely this schedule looks".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.schedule import CompiledSchedule
from ..core.systems import SetTimelinessSystem, SystemWitness
from ..errors import ConfigurationError


@dataclass(frozen=True)
class CertificationReport:
    """The model-membership verdict for one candidate schedule.

    ``in_model`` requires all three clauses: the crash budget holds, the best
    size-``(i, j)`` witness achieves the certification bound, and the witness
    is not saturated (the prefix actually contains timeliness evidence).
    """

    in_model: bool
    crash_ok: bool
    faulty: Tuple[int, ...]
    max_faulty: int
    observed_bound: int
    certify_bound: int
    witness_p: Tuple[int, ...]
    witness_q: Tuple[int, ...]
    saturated: bool
    evidence_ratio: float
    prefix_length: int
    reason: str

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe rendering for campaign payloads and JSON-lines records."""
        return {
            "in_model": self.in_model,
            "crash_ok": self.crash_ok,
            "faulty": list(self.faulty),
            "observed_bound": self.observed_bound,
            "certify_bound": self.certify_bound,
            "witness_p": list(self.witness_p),
            "witness_q": list(self.witness_q),
            "saturated": self.saturated,
            "evidence_ratio": round(self.evidence_ratio, 6),
            "prefix_length": self.prefix_length,
            "reason": self.reason,
        }


def best_witness(
    compiled: CompiledSchedule,
    i: int,
    j: int,
    prefix_length: Optional[int] = None,
) -> SystemWitness:
    """The best size-``(i, j)`` timeliness witness on a candidate's prefix.

    The prefix is scanned straight from the compiled step buffer; no
    :class:`~repro.core.schedule.Schedule` is built.
    """
    length = len(compiled) if prefix_length is None else min(prefix_length, len(compiled))
    if length < 1:
        raise ConfigurationError("cannot certify an empty schedule prefix")
    if length < len(compiled):
        compiled = CompiledSchedule(compiled.n, compiled.steps[:length])
    return SetTimelinessSystem(i=i, j=j, n=compiled.n).best_witness(compiled)


def timeliness_fitness(
    compiled: CompiledSchedule,
    i: int,
    j: int,
    prefix_length: Optional[int] = None,
) -> float:
    """The ``timeliness-bound`` fitness: the best witness's evidence ratio.

    1.0 means the prefix contains no evidence that *any* size-``(i, j)`` pair
    is timely — the most adversarial a schedule can look; values near 0 mean
    some candidate set keeps up with its reference set throughout.
    """
    return round(best_witness(compiled, i, j, prefix_length).witness.evidence_ratio(), 6)


def certify_schedule(
    compiled: CompiledSchedule,
    i: int,
    j: int,
    certify_bound: int,
    max_faulty: int,
    prefix_length: Optional[int] = None,
    witness: Optional[SystemWitness] = None,
) -> CertificationReport:
    """Decide in-model vs out-of-model for one candidate schedule.

    Parameters
    ----------
    compiled:
        The candidate (its crash metadata is the ground-truth fault pattern).
    i, j:
        Witness sizes — ``(k, t + 1)`` for the detector-facing properties.
    certify_bound:
        The timeliness bound membership is judged against.
    max_faulty:
        The crash budget ``t``.
    prefix_length:
        Optional cap on the analysed prefix (witness search is
        ``C(n,i)·C(n,j)·O(length)``; candidates are short enough in practice).
    witness:
        A :func:`best_witness` result already computed for the same
        ``(compiled, i, j, prefix_length)`` — callers that measured the
        timeliness-bound fitness pass it in so the combinatorial witness
        search runs once, not twice.
    """
    if certify_bound < 1:
        raise ConfigurationError(f"certify_bound must be >= 1, got {certify_bound}")
    if witness is None:
        witness = best_witness(compiled, i, j, prefix_length)
    faulty = tuple(sorted(compiled.faulty))
    crash_ok = len(faulty) <= max_faulty
    saturated = witness.witness.saturated
    bound_ok = witness.bound <= certify_bound and not saturated
    in_model = crash_ok and bound_ok
    if in_model:
        reason = (
            f"certified: {len(faulty)}/{max_faulty} crashes, "
            f"{set(witness.p_set)} timely w.r.t. {set(witness.q_set)} "
            f"with bound {witness.bound} <= {certify_bound}"
        )
    elif not crash_ok:
        reason = f"out of model: {len(faulty)} crashes exceed t={max_faulty}"
    elif saturated:
        reason = (
            "out of model: no timeliness evidence at all "
            f"(best witness saturated at bound {witness.bound})"
        )
    else:
        reason = (
            f"out of model: best observed bound {witness.bound} "
            f"exceeds certification bound {certify_bound}"
        )
    length = len(compiled) if prefix_length is None else min(prefix_length, len(compiled))
    return CertificationReport(
        in_model=in_model,
        crash_ok=crash_ok,
        faulty=faulty,
        max_faulty=max_faulty,
        observed_bound=witness.bound,
        certify_bound=certify_bound,
        witness_p=tuple(sorted(witness.p_set)),
        witness_q=tuple(sorted(witness.q_set)),
        saturated=saturated,
        evidence_ratio=witness.witness.evidence_ratio(),
        prefix_length=length,
        reason=reason,
    )
