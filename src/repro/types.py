"""Shared type aliases and tiny value objects used across the library.

The paper models a system of ``n`` processes ``Πn = {1, ..., n}``.  We follow
that convention exactly: a *process id* is a positive integer between 1 and
``n`` inclusive, a *step* of a schedule is a process id, and a *process set*
is a frozen set of process ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

from .errors import ConfigurationError

#: A process identifier.  The paper numbers processes ``1..n``.
ProcessId = int

#: An immutable set of process ids (``P``, ``Q``, ``A`` ... in the paper).
ProcessSet = FrozenSet[ProcessId]

#: A finite schedule represented as a tuple of process ids.
StepSequence = Tuple[ProcessId, ...]


def process_set(processes: Iterable[ProcessId]) -> ProcessSet:
    """Return an immutable :data:`ProcessSet` from any iterable of ids.

    This is the canonical constructor used throughout the library so that set
    identity (hashability, equality) is uniform everywhere.
    """
    return frozenset(int(p) for p in processes)


def validate_process_ids(processes: Iterable[ProcessId], n: int) -> ProcessSet:
    """Validate that every id in ``processes`` lies in ``Πn = {1..n}``.

    Returns the validated set.  Raises
    :class:`~repro.errors.ConfigurationError` (a :class:`ValueError`) on any
    id outside the range, which keeps misuse errors close to their source.
    """
    result = process_set(processes)
    for p in result:
        if not 1 <= p <= n:
            raise ConfigurationError(f"process id {p} is outside Πn = {{1..{n}}}")
    return result


def universe(n: int) -> ProcessSet:
    """Return ``Πn``, the set of all ``n`` process ids ``{1, ..., n}``."""
    if n < 1:
        raise ConfigurationError(f"a system needs at least one process, got n={n}")
    return frozenset(range(1, n + 1))


@dataclass(frozen=True, order=True)
class AgreementInstance:
    """A ``(t, k, n)``-agreement problem instance (Section 3 of the paper).

    ``t`` is the resilience (number of tolerated crashes), ``k`` the maximum
    number of distinct decision values and ``n`` the number of processes.
    """

    t: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n - 1:
            raise ConfigurationError(
                f"resilience t must satisfy 1 <= t <= n-1, got t={self.t}, n={self.n}"
            )
        if not 1 <= self.k <= self.n:
            raise ConfigurationError(
                f"agreement degree k must satisfy 1 <= k <= n, got k={self.k}, n={self.n}"
            )

    @property
    def is_wait_free(self) -> bool:
        """True when ``t = n - 1`` (the wait-free version of the problem)."""
        return self.t == self.n - 1

    @property
    def is_consensus(self) -> bool:
        """True when ``k = 1`` (t-resilient consensus)."""
        return self.k == 1

    @property
    def is_set_agreement(self) -> bool:
        """True when ``k = n - 1`` (t-resilient set agreement)."""
        return self.k == self.n - 1

    def describe(self) -> str:
        """Human-readable name, e.g. ``"(2,1,4)-agreement (consensus)"``."""
        qualifiers = []
        if self.is_consensus:
            qualifiers.append("consensus")
        elif self.is_set_agreement:
            qualifiers.append("set agreement")
        if self.is_wait_free:
            qualifiers.append("wait-free")
        suffix = f" ({', '.join(qualifiers)})" if qualifiers else ""
        return f"({self.t},{self.k},{self.n})-agreement{suffix}"


@dataclass(frozen=True, order=True)
class SystemCoordinates:
    """Coordinates ``(i, j, n)`` of a partially synchronous system ``S^i_{j,n}``.

    The paper requires ``1 <= i <= j <= n``; ``i = j`` degenerates to the
    asynchronous system ``S_n`` (Observation 5).
    """

    i: int
    j: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.i <= self.j <= self.n:
            raise ConfigurationError(
                "system coordinates must satisfy 1 <= i <= j <= n, "
                f"got i={self.i}, j={self.j}, n={self.n}"
            )

    @property
    def is_asynchronous(self) -> bool:
        """True when ``i = j`` — by Observation 5 the system is then ``S_n``."""
        return self.i == self.j

    def describe(self) -> str:
        """Human-readable name, e.g. ``"S^2_{3,5}"``."""
        return f"S^{self.i}_{{{self.j},{self.n}}}"
