"""Set timeliness (Definition 1 of the paper) as executable analysis.

The paper defines: a set of processes ``P`` is *timely with respect to* a set
``Q`` in a schedule ``S`` if there is an integer ``i`` such that every sequence
of consecutive steps of ``S`` that contains ``i`` occurrences of processes in
``Q`` contains a step of a process in ``P``.

For a *finite* schedule such an ``i`` always exists trivially (take one more
than the total number of ``Q``-steps), so the useful quantity on prefixes is
the **minimal** valid bound, which this module computes exactly:

* Partition the schedule into maximal ``P``-free segments (maximal runs of
  consecutive steps none of which is a step of a process in ``P``).
* Let ``g`` be the maximum number of ``Q``-steps contained in any such segment.
* Then ``g + 1`` is the minimal bound: a window with ``g + 1`` ``Q``-steps
  cannot fit inside a ``P``-free segment, and a ``P``-free window with exactly
  ``g`` ``Q``-steps exists whenever ``g >= 1``.

One implementation computes ``g`` everywhere: :func:`best_timeliness_steps`
packs a step buffer into bytes and finds the longest run of ``Q``-steps
between ``P``-steps with C-level ``translate`` and substring scans, so callers
holding an integer buffer never build a :class:`Schedule`;
:func:`best_timeliness_pair` is that entry on a :class:`Schedule` and
:func:`analyze_timeliness` on a single pair.  The per-step segment scan
(:func:`p_free_segments`) remains only for buffers with a step above 255,
which do not fit in bytes, and for :func:`find_violating_window`, which walks
the segments themselves.

The module also provides witnesses (the violating window for ``bound - 1``),
checks of Observations 2 and 3, and helpers for judging whether a finite prefix
gives *evidence* of timeliness in the underlying infinite schedule (the bound
must be small relative to the total number of ``Q``-steps observed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import VerificationError
from ..types import ProcessId, ProcessSet, process_set
from .schedule import Schedule, pack_steps


@dataclass(frozen=True)
class PFreeSegment:
    """A maximal run of consecutive steps containing no step of ``P``.

    ``start`` and ``end`` are step indices with ``end`` exclusive;
    ``q_steps`` is the number of ``Q``-steps inside the segment.
    """

    start: int
    end: int
    q_steps: int

    @property
    def length(self) -> int:
        """Number of steps in the segment (``end - start``)."""
        return self.end - self.start


@dataclass(frozen=True)
class TimelinessWitness:
    """The result of analysing whether ``P`` is timely with respect to ``Q``.

    Attributes
    ----------
    p_set, q_set:
        The sets analysed.
    minimal_bound:
        The smallest ``i`` that satisfies Definition 1 on the analysed finite
        schedule.  Always defined (``total_q_steps + 1`` in the worst case).
    total_q_steps:
        Total number of ``Q``-steps in the schedule, for calibrating how
        meaningful the bound is.
    worst_segment:
        The ``P``-free segment realising the bound (``None`` when ``P`` covers
        every ``Q``-step, i.e. ``minimal_bound == 1``).
    schedule_length:
        Length of the analysed schedule.
    """

    p_set: ProcessSet
    q_set: ProcessSet
    minimal_bound: int
    total_q_steps: int
    worst_segment: Optional[PFreeSegment]
    schedule_length: int

    @property
    def saturated(self) -> bool:
        """True when the bound is vacuous: no ``P``-step separates the ``Q``-steps.

        A saturated witness means the finite prefix contains **no evidence** of
        timeliness — the minimal bound simply equals ``total_q_steps + 1``
        because ``P`` never interrupts the ``Q``-steps at all (or there are no
        ``Q``-steps to interrupt).
        """
        return self.minimal_bound >= self.total_q_steps + 1

    def is_timely_with_bound(self, bound: int) -> bool:
        """Whether the given bound ``i`` satisfies Definition 1 on this prefix."""
        return bound >= self.minimal_bound

    def evidence_ratio(self) -> float:
        """``minimal_bound / (total_q_steps + 1)`` — 1.0 means no evidence.

        Small values indicate that ``P`` keeps up with ``Q`` throughout the
        prefix; values near 1.0 indicate the bound is an artifact of finiteness.
        """
        return self.minimal_bound / (self.total_q_steps + 1)


def p_free_segments(schedule: Schedule, p_set: Iterable[ProcessId], q_set: Iterable[ProcessId]) -> List[PFreeSegment]:
    """Compute all maximal ``P``-free segments with their ``Q``-step counts."""
    return _segments(schedule.steps, process_set(p_set), process_set(q_set))


def _segments(
    steps: Sequence[ProcessId], p_frozen: ProcessSet, q_frozen: ProcessSet
) -> List[PFreeSegment]:
    """:func:`p_free_segments` over a bare step buffer."""
    segments: List[PFreeSegment] = []
    start: Optional[int] = None
    q_count = 0
    for index, step in enumerate(steps):
        if step in p_frozen:
            if start is not None:
                segments.append(PFreeSegment(start=start, end=index, q_steps=q_count))
                start = None
                q_count = 0
        else:
            if start is None:
                start = index
            if step in q_frozen:
                q_count += 1
    if start is not None:
        segments.append(PFreeSegment(start=start, end=len(steps), q_steps=q_count))
    return segments


def analyze_timeliness(
    schedule: Schedule,
    p_set: Iterable[ProcessId],
    q_set: Iterable[ProcessId],
) -> TimelinessWitness:
    """Analyse set timeliness of ``P`` with respect to ``Q`` on a finite schedule.

    Returns a :class:`TimelinessWitness` carrying the minimal bound and the
    first worst ``P``-free segment — :func:`best_timeliness_pair` on the one
    pair.  Raises :class:`VerificationError` when either set is empty — the
    paper's definition quantifies over non-empty sets and an empty ``P`` can
    never take a step.
    """
    return best_timeliness_pair(schedule, [(p_set, q_set)])[1]


def _segment_scan(
    steps: Sequence[ProcessId], p_frozen: ProcessSet, q_frozen: ProcessSet
) -> TimelinessWitness:
    """The per-step segment scan, for buffers that do not pack into bytes."""
    worst: Optional[PFreeSegment] = None
    for segment in _segments(steps, p_frozen, q_frozen):
        if worst is None or segment.q_steps > worst.q_steps:
            worst = segment
    worst_q = worst.q_steps if worst is not None else 0
    return TimelinessWitness(
        p_set=p_frozen,
        q_set=q_frozen,
        minimal_bound=worst_q + 1,
        total_q_steps=sum(1 for step in steps if step in q_frozen),
        worst_segment=worst if worst_q > 0 else None,
        schedule_length=len(steps),
    )


def _longest_run(text: bytes) -> int:
    """Length of the longest run of ``\\x01`` bytes in ``text``.

    Galloping then bisecting on substring tests, each a C-level scan.
    """
    low, high = 0, 1
    while b"\1" * high in text:
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        if b"\1" * middle in text:
            low = middle
        else:
            high = middle
    return low


class _PairScan(NamedTuple):
    """One frozen ``(P, Q)`` pair with the byte tables its packed scan uses."""

    p_set: ProcessSet
    q_set: ProcessSet
    reduce: bytes  # translate table: P-steps to separators, other Q-steps to \x01
    dropped: bytes  # the steps of neither set, deleted by the same translate
    mark: bytes  # translate table: P-steps to separators, the rest kept
    q_pids: bytes  # Q's members inside Πn, for counting its steps


def _frozen_pairs(
    pairs: Sequence[Tuple[Iterable[ProcessId], Iterable[ProcessId]]]
) -> Tuple[Tuple[ProcessSet, ProcessSet], ...]:
    """``pairs`` as frozen sets, checked non-empty (the analyses' error texts)."""
    frozen = tuple((process_set(p_set), process_set(q_set)) for p_set, q_set in pairs)
    if not frozen:
        raise VerificationError("no (P, Q) pair to analyse")
    for p_frozen, q_frozen in frozen:
        if not p_frozen:
            raise VerificationError("timeliness analysis needs a non-empty set P")
        if not q_frozen:
            raise VerificationError("timeliness analysis needs a non-empty set Q")
    return frozen


@lru_cache(maxsize=256)
def _cached_scans(n: int, pairs: tuple) -> Tuple[_PairScan, ...]:
    """The frozen pairs over ``Πn`` with their byte tables.

    The tables cover the processes that fit in a byte: a packed buffer holds
    no step of a wider process.
    """
    pids = range(1, min(n, 255) + 1)
    scans = []
    for p_frozen, q_frozen in _frozen_pairs(pairs):
        separators = bytes(pid for pid in pids if pid in p_frozen)
        others = bytes(pid for pid in pids if pid in q_frozen and pid not in p_frozen)
        scans.append(
            _PairScan(
                p_set=p_frozen,
                q_set=q_frozen,
                reduce=bytes.maketrans(
                    separators + others, bytes(len(separators)) + b"\1" * len(others)
                ),
                dropped=bytes(
                    pid for pid in pids if pid not in p_frozen and pid not in q_frozen
                ),
                mark=bytes.maketrans(separators, bytes(len(separators))),
                q_pids=bytes(pid for pid in pids if pid in q_frozen),
            )
        )
    return tuple(scans)


def _pair_scans(
    n: int, pairs: Sequence[Tuple[Iterable[ProcessId], Iterable[ProcessId]]]
) -> Tuple[_PairScan, ...]:
    """:func:`_cached_scans` for ``pairs``, built once per ``(n, pairs)``.

    Pairs of hashable sets are the cache key as given; unhashable ones
    (``set``, ``list``) are frozen first.
    """
    key = tuple(pairs)
    try:
        hash(key)
    except TypeError:
        key = _frozen_pairs(key)
    return _cached_scans(n, key)


def best_timeliness_pair(
    schedule: Schedule,
    pairs: Sequence[Tuple[Iterable[ProcessId], Iterable[ProcessId]]],
) -> Tuple[int, TimelinessWitness]:
    """The first of ``pairs`` with the smallest minimal bound, and its witness.

    :func:`best_timeliness_steps` on the schedule's steps.  Raises
    :class:`VerificationError` on an empty pair list or an empty set.
    """
    return best_timeliness_steps(schedule.steps, schedule.n, pairs)


def best_timeliness_steps(
    steps: Sequence[ProcessId],
    n: int,
    pairs: Sequence[Tuple[Iterable[ProcessId], Iterable[ProcessId]]],
) -> Tuple[int, TimelinessWitness]:
    """:func:`best_timeliness_pair` on a step buffer over ``Πn``.

    This is the module's one timeliness scan.  It gives the answer of
    scanning each pair's :func:`p_free_segments` and keeping the first worst
    segment, but the per-step work runs in C: ``steps`` (a tuple, list or
    integer array, or bytes already packed by
    :func:`~repro.core.schedule.pack_steps`) is packed one byte per step and
    every pair is scanned as bytes, with its frozen sets and byte tables
    built once per ``(n, pairs)``.  A buffer with a step above 255 does not
    pack and takes the segment scan.  Raises :class:`VerificationError` on an
    empty pair list or an empty set.
    """
    packed = pack_steps(steps)
    if packed is not None:
        return _best_packed(packed, _pair_scans(n, pairs))
    witnesses = [
        _segment_scan(steps, p_set, q_set) for p_set, q_set in _frozen_pairs(pairs)
    ]
    bounds = [witness.minimal_bound for witness in witnesses]
    best = bounds.index(min(bounds))
    return best, witnesses[best]


def _best_packed(packed: bytes, scans: Tuple[_PairScan, ...]) -> Tuple[int, TimelinessWitness]:
    """The bytes scan of :func:`best_timeliness_steps`, over pairs with their tables.

    For each pair one ``translate`` turns ``P``-steps into separators, the
    other ``Q``-steps into ``\\x01`` and drops the rest, so the largest
    number of ``Q``-steps in a ``P``-free segment is the longest ``\\x01``
    run.  A pair that cannot beat the best so far costs one
    substring scan, and only the winning pair's worst segment is located.
    """
    best, worst_q, reduced = -1, 0, b""
    for index, scan in enumerate(scans):
        text = packed.translate(scan.reduce, scan.dropped)
        if best >= 0 and b"\1" * worst_q in text:
            continue  # a run as long as the best pair's: this pair cannot win
        best, worst_q, reduced = index, _longest_run(text), text
    scan = scans[best]
    worst: Optional[PFreeSegment] = None
    if worst_q > 0:
        # The run's segment is P's k-th P-free run, k the separators before it.
        k = reduced.count(b"\0", 0, reduced.find(b"\1" * worst_q))
        lengths = list(map(len, packed.translate(scan.mark).split(b"\0")))
        start = sum(lengths[:k]) + k
        worst = PFreeSegment(start=start, end=start + lengths[k], q_steps=worst_q)
    return best, TimelinessWitness(
        p_set=scan.p_set,
        q_set=scan.q_set,
        minimal_bound=worst_q + 1,
        total_q_steps=sum(map(packed.count, scan.q_pids)),
        worst_segment=worst,
        schedule_length=len(packed),
    )


def minimal_timeliness_bound(
    schedule: Schedule, p_set: Iterable[ProcessId], q_set: Iterable[ProcessId]
) -> int:
    """Shortcut for ``analyze_timeliness(...).minimal_bound``."""
    return analyze_timeliness(schedule, p_set, q_set).minimal_bound


def is_timely(
    schedule: Schedule,
    p_set: Iterable[ProcessId],
    q_set: Iterable[ProcessId],
    bound: int,
) -> bool:
    """Check Definition 1 for a *given* bound ``i`` on a finite schedule.

    ``True`` iff every sequence of consecutive steps containing ``bound``
    occurrences of processes in ``Q`` contains a step of a process in ``P``.
    """
    if bound < 1:
        raise VerificationError(f"timeliness bound must be >= 1, got {bound}")
    return analyze_timeliness(schedule, p_set, q_set).minimal_bound <= bound


def find_violating_window(
    schedule: Schedule,
    p_set: Iterable[ProcessId],
    q_set: Iterable[ProcessId],
    bound: int,
) -> Optional[Tuple[int, int]]:
    """Return a window ``(start, end)`` that violates the given bound, if any.

    A violating window is a sequence of consecutive steps containing ``bound``
    ``Q``-occurrences and no ``P``-step.  ``None`` means the bound holds.
    The window returned is the smallest-index violating one, trimmed to start
    and end at ``Q``-steps for readability.
    """
    if bound < 1:
        raise VerificationError(f"timeliness bound must be >= 1, got {bound}")
    p_frozen = process_set(p_set)
    q_frozen = process_set(q_set)
    for segment in p_free_segments(schedule, p_frozen, q_frozen):
        if segment.q_steps >= bound:
            q_indices = [
                index
                for index in range(segment.start, segment.end)
                if schedule.steps[index] in q_frozen
            ]
            return (q_indices[0], q_indices[bound - 1] + 1)
    return None


def process_timely(schedule: Schedule, p: ProcessId, q: ProcessId, bound: int) -> bool:
    """Process timeliness of [Aguilera & Toueg 2008] as the singleton special case.

    The paper notes that Definition 1 recovers process timeliness by taking
    ``P = {p}`` and ``Q = {q}``.
    """
    return is_timely(schedule, {p}, {q}, bound)


# ----------------------------------------------------------------------
# Observations 2 and 3 — closure properties of set timeliness
# ----------------------------------------------------------------------

def observation_2_union(
    schedule: Schedule,
    p_set: Iterable[ProcessId],
    q_set: Iterable[ProcessId],
    p_prime: Iterable[ProcessId],
    q_prime: Iterable[ProcessId],
) -> bool:
    """Check Observation 2 on a finite schedule.

    If ``P`` is timely w.r.t. ``Q`` (with its minimal observed bound) and
    ``P'`` is timely w.r.t. ``Q'``, then ``P ∪ P'`` is timely w.r.t. ``Q ∪ Q'``
    with a bound no larger than the *sum* of the two bounds.  Returns ``True``
    when the union bound indeed does not exceed that sum (it always should —
    the check exists so property-based tests exercise the implementation).
    """
    bound_pq = analyze_timeliness(schedule, p_set, q_set).minimal_bound
    bound_pq_prime = analyze_timeliness(schedule, p_prime, q_prime).minimal_bound
    union_bound = analyze_timeliness(
        schedule,
        process_set(p_set) | process_set(p_prime),
        process_set(q_set) | process_set(q_prime),
    ).minimal_bound
    return union_bound <= bound_pq + bound_pq_prime


def observation_3_monotonicity(
    schedule: Schedule,
    p_set: Iterable[ProcessId],
    q_set: Iterable[ProcessId],
    p_superset: Iterable[ProcessId],
    q_subset: Iterable[ProcessId],
) -> bool:
    """Check Observation 3 on a finite schedule.

    If ``P ⊆ P'`` and ``Q' ⊆ Q`` then the minimal bound for ``(P', Q')`` is at
    most the minimal bound for ``(P, Q)``.  Returns ``True`` when the claim
    holds on the given schedule; raises when the set inclusions do not hold so
    misuse does not silently vacuously pass.
    """
    p_frozen = process_set(p_set)
    q_frozen = process_set(q_set)
    p_sup = process_set(p_superset)
    q_sub = process_set(q_subset)
    if not p_frozen <= p_sup:
        raise VerificationError("observation 3 requires P ⊆ P'")
    if not q_sub <= q_frozen:
        raise VerificationError("observation 3 requires Q' ⊆ Q")
    if not q_sub:
        # An empty Q' is outside Definition 1; Observation 3 is vacuous there.
        return True
    bound_small = analyze_timeliness(schedule, p_frozen, q_frozen).minimal_bound
    bound_large = analyze_timeliness(schedule, p_sup, q_sub).minimal_bound
    return bound_large <= bound_small
