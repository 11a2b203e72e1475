"""Run observers: non-intrusive instrumentation of simulator executions.

Observers attach to a :class:`~repro.runtime.simulator.Simulator` and sample
process *outputs* (published local variables) after steps.  They never touch
shared memory, so the observed run is exactly the run that would have
happened without them — which matters when the experiment's point is to
measure stabilization times of the unmodified paper algorithm.

Each observer declares a *capability* (see :mod:`repro.runtime.kernel`):
``"every_step"`` observers need every executed step and only run under
:meth:`~repro.runtime.simulator.Simulator.run`; ``"on_publish"`` observers —
like the change-recording :class:`OutputTracker` below — only need the steps
on which the stepped process published, so ``run_fast`` may carry them too.  An observer may
also name the output keys it reads (``observed_keys``); the tracker names its
one key, so publication-gated runs skip it on steps that published only other
keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..types import ProcessId
from .kernel import ON_PUBLISH


#: ``_last_seen`` default for a process never sampled: its first sample is
#: always a change, even when the value is ``None`` (a key never published).
_UNSEEN = object()


@dataclass(frozen=True)
class OutputChange:
    """One recorded change of a published output.

    ``step`` is the global step index at which the change became visible,
    ``pid`` the process whose output changed, and ``value`` the new value.
    """

    step: int
    pid: ProcessId
    value: Any


@dataclass
class OutputTracker:
    """Records every change of one published output key across all processes.

    Use as ``simulator.add_observer(tracker)``; the tracker implements the
    observer call signature directly.  Only *changes* are stored, so long runs
    with stable outputs stay cheap to record and to analyse.
    """

    key: str
    changes: List[OutputChange] = field(default_factory=list)
    _last_seen: Dict[ProcessId, Any] = field(default_factory=dict)

    #: The tracker only records *changes*, so it needs exactly the steps on
    #: which the stepped process published — the ``on_publish`` capability.
    #: This is what lets it ride ``run_fast`` unchanged.
    observer_capability: ClassVar[str] = ON_PUBLISH

    @property
    def observed_keys(self) -> Tuple[str, ...]:
        """The one output key the tracker reads (scopes its ``on_publish`` sampling)."""
        return (self.key,)

    def __call__(self, step: int, pid: ProcessId, simulator: "Any") -> None:
        value = simulator.output_of(pid, self.key)
        last = self._last_seen.get(pid, _UNSEEN)
        if last is not _UNSEEN and last == value:
            return
        self._last_seen[pid] = value
        self.changes.append(OutputChange(step=step, pid=pid, value=value))

    def snapshot(self) -> Tuple[int, Optional[OutputChange], Dict[ProcessId, Any]]:
        """The change-list length and last-seen values, as :meth:`restore` takes them."""
        changes = self.changes
        return len(changes), changes[-1] if changes else None, dict(self._last_seen)

    def restore(self, saved: Tuple[int, Optional[OutputChange], Dict[ProcessId, Any]]) -> None:
        """Cut the change list back to :meth:`snapshot`'s length and restore last-seen values.

        Changes are only ever appended, so the list restores by length; that
        is sound only when the snapshot lies on the path of the current list
        (the recorded change at its length is still the one it saw), which
        :class:`~repro.errors.SimulationError` enforces.
        """
        length, last, last_seen = saved
        changes = self.changes
        if len(changes) < length or (length and changes[length - 1] is not last):
            raise SimulationError(
                f"tracker of {self.key!r} cannot restore a snapshot its change list "
                "has since diverged from (restore only snapshots of the run being "
                "continued or of a run whose prefix it resumed)"
            )
        del changes[length:]
        self._last_seen = dict(last_seen)

    # ------------------------------------------------------------------
    def history_of(self, pid: ProcessId) -> List[OutputChange]:
        """All recorded changes of the tracked output for one process."""
        return [change for change in self.changes if change.pid == pid]

    def value_at(self, pid: ProcessId, step: int) -> Any:
        """The tracked output of ``pid`` as of (global) step ``step``."""
        value: Any = None
        for change in self.changes:
            if change.pid != pid:
                continue
            if change.step > step:
                break
            value = change.value
        return value

    def final_value(self, pid: ProcessId) -> Any:
        """The last recorded value of the tracked output for ``pid``."""
        value: Any = None
        for change in self.changes:
            if change.pid == pid:
                value = change.value
        return value

    def final_values(self) -> Dict[ProcessId, Any]:
        """Final recorded value per process (processes never seen are absent)."""
        values: Dict[ProcessId, Any] = {}
        for change in self.changes:
            values[change.pid] = change.value
        return values

    def last_change_step(self, pid: Optional[ProcessId] = None) -> Optional[int]:
        """Step of the last change (for one process, or overall when ``pid`` is None)."""
        last: Optional[int] = None
        for change in self.changes:
            if pid is not None and change.pid != pid:
                continue
            last = change.step
        return last

    def stabilization_step(self, pids: Optional[List[ProcessId]] = None) -> Optional[int]:
        """First step after which none of the given processes changes again.

        ``None`` when no change was ever recorded for them.  With ``pids``
        omitted, considers every process that ever changed.
        """
        relevant = [
            change
            for change in self.changes
            if pids is None or change.pid in pids
        ]
        if not relevant:
            return None
        return max(change.step for change in relevant)
