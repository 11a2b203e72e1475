"""Round-robin (synchronous) schedule generation.

The fully synchronous schedule — processes take steps in a fixed rotation —
is the baseline "nicest possible" schedule: every non-empty set is timely with
respect to every set with bound at most ``n``.  It is used as the easy case in
convergence experiments and as a building block of other generators.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Optional, Sequence

from ..errors import ConfigurationError
from ..runtime.crash import CrashPattern
from ..types import ProcessId
from .base import ScheduleGenerator, SynchronyGuarantee
from .segments import FOREVER, rotation


class RoundRobinGenerator(ScheduleGenerator):
    """Cycle through the (alive) processes in a fixed order forever.

    Parameters
    ----------
    n:
        Number of processes.
    order:
        Per-cycle order; defaults to ``1..n``.  Must not contain duplicates.
    crash_pattern:
        Crashed processes are skipped from their crash step onward.
    """

    def __init__(
        self,
        n: int,
        order: Optional[Sequence[ProcessId]] = None,
        crash_pattern: Optional[CrashPattern] = None,
    ) -> None:
        super().__init__(n, crash_pattern)
        cycle = tuple(order) if order is not None else tuple(range(1, n + 1))
        if len(set(cycle)) != len(cycle):
            raise ConfigurationError(f"round-robin order contains duplicates: {cycle}")
        for pid in cycle:
            if not 1 <= pid <= n:
                raise ConfigurationError(f"round-robin order mentions unknown process {pid}")
        if not cycle:
            raise ConfigurationError("round-robin order must contain at least one process")
        self.order = cycle

    @classmethod
    def from_params(cls, params: dict) -> "RoundRobinGenerator":
        """Build from JSON-normalized scenario parameters (``n``, ``order``, crashes)."""
        n = int(params["n"])
        order = params.get("order")
        return cls(
            n,
            order=tuple(int(pid) for pid in order) if order else None,
            crash_pattern=CrashPattern.from_params(n, params),
        )

    @property
    def description(self) -> str:
        """Provenance line: the rotation order."""
        return f"round-robin over {list(self.order)}"

    def guarantee(self) -> Optional[SynchronyGuarantee]:
        """Every correct scheduled process is timely w.r.t. everyone with bound ≤ cycle length.

        Reported as: the set of correct processes in the rotation is timely
        with respect to ``Πn`` with bound ``len(order)`` (a window with that
        many steps of anybody spans a full cycle).
        """
        correct_in_order = frozenset(self.order) - self.faulty
        if not correct_in_order:
            return None
        return SynchronyGuarantee(
            p_set=correct_in_order,
            q_set=frozenset(range(1, self.n + 1)),
            bound=len(self.order),
        )

    def _emit(self) -> Iterator[ProcessId]:
        return chain.from_iterable(
            rotation(
                self.crash_pattern,
                self.order,
                0,
                FOREVER,
                "round-robin generator has no alive process left to schedule; "
                "crash pattern kills every process in the rotation",
            )
        )
