"""The trivial algorithm for (t, k, n)-agreement when ``t < k``.

Section 4.3 remarks that for ``t < k`` the problem is solvable in the plain
asynchronous system.  The folklore algorithm: processes ``1 .. t+1`` publish
their initial values in single-writer registers; every process repeatedly
collects those ``t + 1`` registers until it sees at least one value, and
decides the value of the smallest-id publisher it has seen.

* **Validity** — decisions are published initial values.
* **k-agreement** — at most ``t + 1 <= k`` distinct values can ever be decided
  (one per publisher).
* **Termination** — with at most ``t`` crashes, at least one of the ``t + 1``
  publishers is correct, publishes, and every correct collector eventually
  sees it.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..errors import ConfigurationError
from ..runtime.automaton import (
    Operation,
    ProcessAutomaton,
    ProcessContext,
    Program,
    ReadOp,
    WriteOp,
)
from ..types import ProcessId
from .kset import DECISION


class TrivialKSetAgreementAutomaton(ProcessAutomaton):
    """One process of the trivial ``t < k`` algorithm.

    Registers: ``("trivial-input", p)`` for each publisher ``p`` in ``1..t+1``.
    """

    def __init__(self, pid: ProcessId, n: int, t: int, k: int, input_value: Any) -> None:
        super().__init__(pid, n, t=t, k=k)
        if not 1 <= t <= n - 1:
            raise ConfigurationError(f"need 1 <= t <= n-1, got t={t}, n={n}")
        if not t < k <= n:
            raise ConfigurationError(
                f"the trivial algorithm applies only when t < k <= n, got t={t}, k={k}"
            )
        self.t = t
        self.k = k
        self.input_value = input_value
        # The collect loop re-reads the same t + 1 registers until a value
        # shows up, so the read table is preallocated; prebind() upgrades it
        # (and the one-shot publish write) to slot-bound ops, unbind()
        # restores the name-addressed templates.
        self._publishers = list(range(1, t + 2))
        self._collect_reads: List[Operation] = []
        self._publish_write: Operation = WriteOp(("trivial-input", pid), input_value)
        self.unbind()
        self.publish(DECISION, None)

    def prebind(self, registers: Any) -> None:
        self._collect_reads = [
            ReadOp(("trivial-input", publisher)).bind(registers)
            for publisher in self._publishers
        ]
        # Only publishers ever yield the publish write; binding it for other
        # pids would intern ('trivial-input', pid) registers the unbound path
        # never creates, diverging the two paths' register namespaces.
        if self.pid in self._publishers:
            self._publish_write = WriteOp(
                ("trivial-input", self.pid), self.input_value
            ).bind(registers)

    def unbind(self) -> None:
        self._collect_reads = [
            ReadOp(("trivial-input", publisher)) for publisher in self._publishers
        ]
        self._publish_write = WriteOp(("trivial-input", self.pid), self.input_value)

    def decision(self) -> Any:
        """The decided value (``None`` until the process decides)."""
        return self.output(DECISION)

    def program(self, ctx: ProcessContext) -> Program:
        collect_reads = self._collect_reads
        if self.pid in self._publishers:
            yield self._publish_write
        while True:
            seen: Optional[Any] = None
            for read_op in collect_reads:
                value = yield read_op
                if value is not None and seen is None:
                    seen = value
            if seen is not None:
                self.publish(DECISION, seen)
                return seen
