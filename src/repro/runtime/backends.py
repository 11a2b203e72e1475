"""Execution backend registry for batched replica runs.

:func:`~repro.runtime.kernel.execute_batch` separates *what* a batch run means
(every replica executes the same budgeted prefix of one shared compiled
schedule, with identical observable effects to running each replica alone)
from *how* the steps are driven.  The "how" is a :class:`Backend`:

* :class:`ReferenceBackend` (``"python"``) — the pure-Python kernel loops
  (:func:`~repro.runtime.kernel._execute_bare` and friends), one
  replica at a time.  This is the semantic reference and the tier-1 default;
  every other backend is tested byte-identical against it.
* ``"vector"`` (:mod:`repro.runtime.vector_backend`) — a numpy column
  backend that runs the whole batch in lockstep over ``(batch × slots)``
  integer columns.  It is registered lazily so importing this module never
  requires numpy.
* :class:`AutoBackend` (``"auto"``) — a planner, not an engine: it inspects
  the batch (numpy present?  every automaton class lowerable?  sampling
  publication-gated?) and delegates to the vector backend when the whole
  batch can take the column lane, falling back *loudly* (one warning per
  distinct reason, plus :attr:`AutoBackend.last_plan`) to the reference
  kernel otherwise.  ``"auto"`` is always available, so callers can default
  to it without caring whether the optional numpy extra is installed.

Backends registered here are automatically picked up by the
backend-conformance differential suite (``tests/runtime/test_backends.py``):
a new backend only has to call :func:`register_backend` to be swept against
the reference kernel over the full seeded scenario/workload matrix.

>>> sorted(backend_names())
['auto', 'python', 'vector']
>>> get_backend("python").name
'python'
"""

from __future__ import annotations

import logging
from array import array
from importlib import import_module
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from ..errors import ConfigurationError
from ..types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.schedule import CompiledSchedule
    from .kernel import ExecutionPolicy
    from .simulator import RunResult, Simulator

#: One replica's crash mask: ``pid -> schedule step index`` from which that
#: process takes no further steps (same convention as
#: :attr:`repro.core.schedule.CompiledSchedule.crash_steps`).
CrashMask = Optional[Mapping[ProcessId, int]]

#: One checkpoint snapshot: ``pid -> {key: published value}``.
Snapshot = Dict[ProcessId, Dict[str, Any]]


class Backend:
    """How a batch of replicas is driven over one shared compiled buffer.

    Subclasses implement :meth:`run_batch`; everything a backend may *not*
    change is fixed by the conformance contract: outputs, tracker change
    sequences, halting, register values and operation counts, per-process
    ``steps_taken`` and the per-replica ``RunResult`` accounting must be
    byte-identical to the reference backend for every supported run.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    def available(self) -> bool:
        """Whether the backend can run in this environment (deps present)."""
        return True

    def ensure_available(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` when unavailable.

        Subclasses with optional dependencies override this to name the
        missing dependency and the extra that installs it.
        """
        if not self.available():
            raise ConfigurationError(
                f"execution backend {self.name!r} is not available in this "
                "environment (a required optional dependency is missing)"
            )

    def run_batch(
        self,
        simulators: Sequence["Simulator"],
        compiled: "CompiledSchedule",
        budget: int,
        policy: "ExecutionPolicy",
        crash_masks: Optional[Sequence[CrashMask]] = None,
    ) -> List["RunResult"]:
        """Execute ``compiled.steps[:budget]`` on every replica.

        ``crash_masks``, when given, carries one mask per replica; a masked
        process's steps at schedule index ``>= mask[pid]`` are skipped for
        that replica — equivalently, the replica runs the buffer with those
        steps deleted (later steps keep their relative order, the replica's
        step indices renumber densely).
        """
        raise NotImplementedError


def _filtered_buffer(
    steps: Sequence[ProcessId], budget: int, mask: Mapping[ProcessId, int]
) -> array:
    """The budgeted buffer with a crash mask's dead steps deleted."""
    return array(
        "i",
        (
            pid
            for index, pid in enumerate(islice(iter(steps), budget))
            if index < mask.get(pid, budget)
        ),
    )


class ReferenceBackend(Backend):
    """The pure-Python kernel loops, one replica at a time (the default).

    Replicas run sequentially and independently; per replica the kernel
    selects the bare counted loop (no observers, no trace) or the general
    loop, exactly as :func:`~repro.runtime.kernel.execute` would.
    """

    name = "python"

    def run_batch(
        self,
        simulators: Sequence["Simulator"],
        compiled: "CompiledSchedule",
        budget: int,
        policy: "ExecutionPolicy",
        crash_masks: Optional[Sequence[CrashMask]] = None,
    ) -> List["RunResult"]:
        """Run every replica through the existing per-replica kernel loops."""
        from .kernel import _execute_bare, _execute_general, check_observer_capabilities

        steps = compiled.steps
        whole_buffer = budget == len(steps)
        counts = compiled.step_counts() if whole_buffer else None
        results: List["RunResult"] = []
        for index, sim in enumerate(simulators):
            mask = crash_masks[index] if crash_masks is not None else None
            entries = sim.observer_entries()
            check_observer_capabilities(policy, entries)
            bare = not entries and not policy.collect_trace
            if mask:
                filtered = _filtered_buffer(steps, budget, mask)
                if bare:
                    results.append(_execute_bare(sim, filtered))
                else:
                    results.append(
                        _execute_general(
                            sim, iter(filtered), len(filtered), None, policy, entries
                        )
                    )
            elif bare:
                if whole_buffer:
                    results.append(_execute_bare(sim, steps, counts))
                else:
                    results.append(_execute_bare(sim, islice(iter(steps), budget)))
            else:
                results.append(
                    _execute_general(sim, iter(steps), budget, None, policy, entries)
                )
        return results


_LOGGER = logging.getLogger(__name__)

#: Fallback reasons already warned about (the "loud" in *falls back loudly*
#: means one warning per distinct reason, not one per batch).
_WARNED_FALLBACKS: Set[str] = set()


def _warn_fallback(reason: str) -> None:
    """Log each distinct auto-planner fallback reason once per process."""
    if reason not in _WARNED_FALLBACKS:
        _WARNED_FALLBACKS.add(reason)
        _LOGGER.warning("auto backend falling back to the reference kernel: %s", reason)


def plan_backend_for_classes(
    automaton_classes: Iterable[Type], policy: "ExecutionPolicy"
) -> Tuple[str, Optional[str]]:
    """The auto planner's decision rule, as a pure function.

    Returns ``(backend_name, fallback_reason)``: ``("vector", None)`` when a
    batch built from the given automaton classes can take the column lane —
    numpy installed, the policy's observer sampling publication-gated, and a
    vector lowering registered for *every* class — else
    ``("python", reason)``.  :class:`AutoBackend` applies it to every
    simulator batch; exposing it lets the rule be inspected without building
    one.
    """
    from .kernel import EVERY_STEP
    from .vector_backend import lowering_for

    if not get_backend("vector").available():
        return (
            "python",
            "numpy is not installed (the [vector] optional extra); batches run "
            "on the pure-Python reference kernel",
        )
    if policy.sampling == EVERY_STEP:
        return (
            "python",
            f"policy {policy.name!r} samples observers on every step; the "
            "vector lane supports publication-gated sampling only",
        )

    for klass in automaton_classes:
        if lowering_for(klass) is None:
            return (
                "python",
                f"no vector lowering registered for {klass.__name__}",
            )
    return ("vector", None)


class AutoBackend(Backend):
    """The ``"auto"`` planner: pick the vector lane when the batch can take it.

    Decision rule (per batch, recorded in :attr:`last_plan`): the vector
    backend is chosen iff numpy is installed, the policy's observer sampling
    is publication-gated, and **every** replica automaton class has a
    registered vector lowering (:func:`~repro.runtime.vector_backend.lowering_for`);
    otherwise the batch runs on the reference kernel and the reason is logged
    once per distinct cause.  The vector backend keeps its own internal
    fallback for conditions the planner cannot see from classes alone
    (already-started replicas, non-integer register values, custom
    statistics), so a plan of ``"vector"`` is a fast-path bet, never a
    correctness one.
    """

    name = "auto"

    def __init__(self) -> None:
        #: Diagnostics for the most recent planning decision:
        #: ``{"backend", "reason", "batch"}``.
        self.last_plan: Dict[str, Any] = {}

    def available(self) -> bool:
        """Always available — planning to the reference kernel needs nothing."""
        return True

    def run_batch(
        self,
        simulators: Sequence["Simulator"],
        compiled: "CompiledSchedule",
        budget: int,
        policy: "ExecutionPolicy",
        crash_masks: Optional[Sequence[CrashMask]] = None,
    ) -> List["RunResult"]:
        """Plan, then delegate the shared-schedule batch to the chosen backend."""
        sims = list(simulators)
        classes = {
            type(state.automaton) for sim in sims for state in sim._states.values()
        }
        chosen, reason = plan_backend_for_classes(classes, policy)
        self.last_plan = {"backend": chosen, "reason": reason, "batch": len(sims)}
        if reason is not None:
            _warn_fallback(reason)
        return get_backend(chosen).run_batch(
            sims, compiled, budget, policy, crash_masks
        )


_BACKENDS: Dict[str, Backend] = {}

#: Backends registered on first use so their modules (and optional
#: dependencies) are only imported when actually requested.
_LAZY_BACKENDS: Dict[str, str] = {"vector": "repro.runtime.vector_backend"}


def register_backend(backend: Backend) -> Backend:
    """Register a backend instance under its ``name`` (latest wins).

    Returns the backend so the call can be used as a statement-expression at
    module scope.  Registering here is all it takes to join the
    backend-conformance differential suite.
    """
    _BACKENDS[backend.name] = backend
    return backend


def backend_names() -> List[str]:
    """Every registered backend name, including lazily registered ones."""
    return sorted(set(_BACKENDS) | set(_LAZY_BACKENDS))


def get_backend(spec: Union[str, Backend, None]) -> Backend:
    """Resolve a backend spec — a name, an instance, or ``None`` (reference).

    Unknown names raise :class:`~repro.errors.ConfigurationError` listing the
    valid choices; lazily registered backends are imported on first request.
    """
    if spec is None:
        spec = ReferenceBackend.name
    if isinstance(spec, Backend):
        return spec
    backend = _BACKENDS.get(spec)
    if backend is None and spec in _LAZY_BACKENDS:
        import_module(_LAZY_BACKENDS[spec])
        backend = _BACKENDS.get(spec)
    if backend is None:
        raise ConfigurationError(
            f"unknown execution backend {spec!r}; available: {backend_names()}"
        )
    return backend


def available_backends() -> List[str]:
    """Names of the registered backends whose dependencies are present."""
    return [name for name in backend_names() if get_backend(name).available()]


register_backend(ReferenceBackend())
register_backend(AutoBackend())
