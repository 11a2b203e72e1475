"""Systems and partially synchronous systems (Section 2.2 of the paper).

A *system* is a tuple ``(Πn, Ξ, Scheds)`` where ``Scheds`` is the set of
schedules that are possible in the system.  The paper defines:

* the asynchronous system ``S_n`` — every schedule is possible;
* the partially synchronous system ``S^i_{j,n}`` — the schedules in which at
  least one set of ``i`` processes is timely with respect to at least one set
  of ``j`` processes (``1 <= i <= j <= n``).

Infinite schedule sets cannot be materialized, so a :class:`System` here is a
*predicate object*: it can test finite prefixes for membership evidence, name
witnesses, and compare itself to other systems via the containment relations
the paper states (Observations 4 and 5).

Membership of a *finite* prefix in ``S^i_{j,n}`` is technically always true
(any bound larger than the number of observed steps works), so the meaningful
notions on prefixes are:

* ``best_witness`` — the pair of sets ``(P, Q)`` of sizes ``(i, j)`` with the
  smallest observed timeliness bound;
* ``admits_with_bound`` — whether some witness achieves a caller-chosen bound,
  which is how generated schedules are checked against the guarantee their
  generator claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, List, Tuple, Union

from ..errors import ConfigurationError
from ..types import ProcessSet, SystemCoordinates, process_set, universe
from .schedule import CompiledSchedule, Schedule
from .timeliness import TimelinessWitness, analyze_timeliness, best_timeliness_steps


@dataclass(frozen=True)
class SystemWitness:
    """A witness that a schedule exhibits the synchrony a system requires.

    ``p_set`` is timely with respect to ``q_set`` with the observed
    ``witness.minimal_bound``.
    """

    p_set: ProcessSet
    q_set: ProcessSet
    witness: TimelinessWitness

    @property
    def bound(self) -> int:
        """The observed timeliness bound: the witness's ``minimal_bound``."""
        return self.witness.minimal_bound


class System:
    """Base class: the asynchronous system ``S_n`` of ``n`` processes.

    Every schedule over ``Πn`` belongs to the asynchronous system, so the base
    implementation of the membership queries is trivially permissive.
    Subclasses restrict ``Scheds``.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ConfigurationError(f"a system needs at least one process, got n={n}")
        self._n = n

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of processes ``n``."""
        return self._n

    @property
    def processes(self) -> ProcessSet:
        """The process universe ``Πn``."""
        return universe(self._n)

    @property
    def name(self) -> str:
        """The paper's name for the system, ``S_n``."""
        return f"S_{self._n}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.__class__.__name__} {self.name}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, System) and self.coordinates() == other.coordinates()

    def __hash__(self) -> int:
        return hash(self.coordinates())

    # ------------------------------------------------------------------
    def coordinates(self) -> SystemCoordinates:
        """Coordinates of this system in the ``S^i_{j,n}`` family.

        By Observation 5 the asynchronous system is ``S^i_{i,n}`` for any
        ``i``; we canonically use ``i = j = n``.
        """
        return SystemCoordinates(i=self._n, j=self._n, n=self._n)

    def is_asynchronous(self) -> bool:
        """Whether this system places no synchrony restriction on schedules."""
        return True

    def admits(self, schedule: Schedule) -> bool:
        """Whether the schedule satisfies the system's synchrony requirement.

        The asynchronous system admits every schedule over its universe.
        """
        self._check_universe(schedule)
        return True

    def contains(self, other: "System") -> bool:
        """Containment ``other ⊆ self`` between systems (same ``n`` required).

        The asynchronous system contains every system over the same universe.
        """
        return other.n == self._n

    # ------------------------------------------------------------------
    def _check_universe(self, schedule: Union[Schedule, CompiledSchedule]) -> None:
        if schedule.n != self._n:
            raise ConfigurationError(
                f"schedule over Π{schedule.n} cannot be judged against a system over Π{self._n}"
            )


class AsynchronousSystem(System):
    """Alias of :class:`System` with an explicit name, for readability."""


class SetTimelinessSystem(System):
    """The partially synchronous system ``S^i_{j,n}`` of the paper.

    Schedules of ``S^i_{j,n}`` are those in which at least one set of ``i``
    processes is timely with respect to at least one set of ``j`` processes.
    """

    def __init__(self, i: int, j: int, n: int) -> None:
        super().__init__(n)
        if not 1 <= i <= j <= n:
            raise ConfigurationError(
                f"S^i_{{j,n}} requires 1 <= i <= j <= n, got i={i}, j={j}, n={n}"
            )
        self._i = i
        self._j = j

    # ------------------------------------------------------------------
    @property
    def i(self) -> int:
        """Size of the timely set ``P``."""
        return self._i

    @property
    def j(self) -> int:
        """Size of the reference set ``Q``."""
        return self._j

    @property
    def name(self) -> str:
        """The paper's name for the system, ``S^i_{j,n}``."""
        return f"S^{self._i}_{{{self._j},{self._n}}}"

    def coordinates(self) -> SystemCoordinates:
        """Coordinates ``(i, j, n)`` of this system in the ``S^i_{j,n}`` family."""
        return SystemCoordinates(i=self._i, j=self._j, n=self._n)

    def is_asynchronous(self) -> bool:
        """Observation 5: ``S^i_{i,n}`` is the asynchronous system ``S_n``."""
        return self._i == self._j

    # ------------------------------------------------------------------
    def candidate_pairs(self) -> Iterator[Tuple[ProcessSet, ProcessSet]]:
        """All ``(P, Q)`` pairs with ``|P| = i`` and ``|Q| = j``.

        The number of pairs is ``C(n, i) * C(n, j)``; callers iterating this
        should keep ``n`` modest (which the paper's constructions do — the
        Figure 2 algorithm itself enumerates ``Π^k_n``).
        """
        return _iter_pairs(self._i, self._j, self._n)

    def best_witness(self, schedule: Union[Schedule, CompiledSchedule]) -> SystemWitness:
        """The ``(P, Q)`` pair of the right sizes with the smallest observed bound.

        A :class:`~repro.core.schedule.CompiledSchedule` is scanned straight
        from its step buffer (:func:`~repro.core.timeliness.best_timeliness_steps`),
        so judging a compiled prefix materializes no ``Schedule``.
        """
        self._check_universe(schedule)
        pairs = _candidate_pairs(self._i, self._j, self._n)
        index, witness = best_timeliness_steps(schedule.steps, schedule.n, pairs)
        p_set, q_set = pairs[index]
        return SystemWitness(p_set=p_set, q_set=q_set, witness=witness)

    def witnesses_with_bound(self, schedule: Schedule, bound: int) -> List[SystemWitness]:
        """All witnesses achieving the given bound on the schedule."""
        self._check_universe(schedule)
        found: List[SystemWitness] = []
        for p_set, q_set in self.candidate_pairs():
            witness = analyze_timeliness(schedule, p_set, q_set)
            if witness.minimal_bound <= bound:
                found.append(SystemWitness(p_set=p_set, q_set=q_set, witness=witness))
        return found

    def admits(self, schedule: Schedule) -> bool:
        """Finite-prefix membership: always true, as for any finite schedule.

        Exposed for interface uniformity; use :meth:`admits_with_bound` or
        :meth:`best_witness` for meaningful prefix-level evidence.
        """
        self._check_universe(schedule)
        return True

    def admits_with_bound(self, schedule: Schedule, bound: int) -> bool:
        """Whether some size-``(i, j)`` pair is timely with the given bound."""
        self._check_universe(schedule)
        for p_set, q_set in self.candidate_pairs():
            if analyze_timeliness(schedule, p_set, q_set).minimal_bound <= bound:
                return True
        return False

    def contains(self, other: "System") -> bool:
        """Containment per Observations 4 and 5.

        Observation 4: ``S^{i'}_{j',n} ⊆ S^i_{j,n}`` when ``i' <= i`` and
        ``j' >= j``.  Observation 5: every diagonal system ``S^i_{i,n}`` *is*
        the asynchronous system ``S_n``, so when this system is diagonal it
        contains every system over the same universe.
        """
        if other.n != self._n:
            return False
        if self.is_asynchronous():
            return True
        other_coords = other.coordinates()
        return other_coords.i <= self._i and other_coords.j >= self._j


def _iter_pairs(i: int, j: int, n: int) -> Iterator[Tuple[ProcessSet, ProcessSet]]:
    """All ``(P, Q)`` pairs with ``|P| = i`` and ``|Q| = j`` over ``Πn``, in order."""
    processes = range(1, n + 1)
    for p_combo in combinations(processes, i):
        for q_combo in combinations(processes, j):
            yield process_set(p_combo), process_set(q_combo)


@lru_cache(maxsize=64)
def _candidate_pairs(i: int, j: int, n: int) -> Tuple[Tuple[ProcessSet, ProcessSet], ...]:
    """:func:`_iter_pairs` as a tuple, built once per ``(i, j, n)``."""
    return tuple(_iter_pairs(i, j, n))


def asynchronous_system(n: int) -> AsynchronousSystem:
    """Construct the asynchronous system ``S_n``."""
    return AsynchronousSystem(n)


def partially_synchronous_system(i: int, j: int, n: int) -> SetTimelinessSystem:
    """Construct ``S^i_{j,n}`` with the paper's parameter constraints."""
    return SetTimelinessSystem(i=i, j=j, n=n)


def system_family(n: int) -> List[SetTimelinessSystem]:
    """Every ``S^i_{j,n}`` with ``1 <= i <= j <= n`` — the paper's full family."""
    family: List[SetTimelinessSystem] = []
    for j in range(1, n + 1):
        for i in range(1, j + 1):
            family.append(SetTimelinessSystem(i=i, j=j, n=n))
    return family
