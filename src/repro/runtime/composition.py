"""Composing several sub-automata inside one process.

Higher layers frequently need a process to run two algorithms "at the same
time": the agreement layer of Section 4.3 queries the failure detector of
Section 4.2 while executing its own protocol.  In the paper's model both are
part of the single deterministic automaton of that process.

:class:`ComposedAutomaton` realizes this by interleaving the sub-programs
round-robin: each scheduled step of the process advances exactly one
sub-program by one shared-memory operation, rotating through the sub-programs.
This preserves the one-operation-per-step discipline and multiplies every
timeliness bound by at most the number of sub-programs — a constant factor,
which is exactly the argument Lemma 9 makes about loop iterations having a
bounded number of steps.

A component that yields a :class:`~repro.runtime.automaton.CollectOp` has
it expanded into its single reads, each one turn of the rotation, and
receives the list of values once the last read returns — so the composed
interleaving is the one a loop of single reads would give.

Sub-programs that halt (their generator returns) simply drop out of the
rotation; when all halt, the composed automaton halts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..types import ProcessId
from .automaton import ProcessAutomaton, ProcessContext, Program, is_collect_operation


def _expand_collects(generator: Program) -> Program:
    """Re-yield ``generator``'s operations with every collect as single reads."""
    result: Any = None
    while True:
        try:
            op = generator.send(result)
        except StopIteration as stop:
            return stop.value
        if is_collect_operation(op):
            result = []
            for read in op.reads():
                value = yield read
                result.append(value)
        else:
            result = yield op


class ComposedAutomaton(ProcessAutomaton):
    """Round-robin interleaving of several sub-automata within one process.

    Parameters
    ----------
    pid, n:
        Process identity.
    components:
        Named sub-automata, instantiated for the same ``pid``.  Their published
        outputs are re-exported by the composition under
        ``"<component name>.<key>"`` as well as the bare key (later components
        win bare-key collisions), so observers keep working unchanged.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        components: Sequence[Tuple[str, ProcessAutomaton]],
        **params: Any,
    ) -> None:
        super().__init__(pid, n, **params)
        if not components:
            raise SimulationError("a composed automaton needs at least one component")
        for name, component in components:
            if component.pid != pid or component.n != n:
                raise SimulationError(
                    f"component {name!r} was built for process {component.pid}/{component.n}, "
                    f"expected {pid}/{n}"
                )
        self._components: List[Tuple[str, ProcessAutomaton]] = list(components)
        self._synced_component_versions = -1
        #: Each component's ``outputs_version`` at the last sync, by position.
        self._synced_versions: List[int] = [-1] * len(self._components)

    # ------------------------------------------------------------------
    def prebind(self, registers: Any) -> None:
        """Forward operation pre-binding to every component.

        The composition yields its components' ops verbatim, so binding the
        components binds the composition; there are no ops of its own.
        """
        for _, component in self._components:
            component.prebind(registers)

    def unbind(self) -> None:
        """Forward un-binding to every component (see :meth:`prebind`)."""
        for _, component in self._components:
            component.unbind()

    def snapshot_outputs(self) -> Any:
        """The composition's outputs, every component's, and what was synced from them."""
        return (
            super().snapshot_outputs(),
            [component.snapshot_outputs() for _, component in self._components],
            self._synced_component_versions,
            list(self._synced_versions),
        )

    def restore_outputs(self, saved: Any) -> None:
        """Put back what :meth:`snapshot_outputs` returned, components included."""
        own, components, synced_total, synced = saved
        super().restore_outputs(own)
        for (_, component), component_saved in zip(self._components, components):
            component.restore_outputs(component_saved)
        self._synced_component_versions = synced_total
        self._synced_versions = list(synced)

    # ------------------------------------------------------------------
    def component(self, name: str) -> ProcessAutomaton:
        """Access a sub-automaton by its name."""
        for component_name, component in self._components:
            if component_name == name:
                return component
        raise SimulationError(f"no component named {name!r}")

    def _sync_outputs(self) -> None:
        # Component versions are monotone, so their sum changes iff some
        # component published since the last sync; skipping the copy keeps the
        # composition out of the hot path and keeps the composed automaton's
        # own outputs_version accurate for version-gated observer sampling.
        # Both copies of a key count as published when its component
        # published it since the last sync, for key-scoped sampling (a key
        # with no recorded version counts as published, to stay safe).
        total = sum(component.outputs_version for _, component in self._components)
        if total == self._synced_component_versions:
            return
        self._synced_component_versions = total
        version = self.outputs_version + 1
        published = self.output_versions
        synced = self._synced_versions
        for position, (name, component) in enumerate(self._components):
            since = synced[position]
            key_versions = component.output_versions
            for key, value in component.outputs.items():
                self.outputs[f"{name}.{key}"] = value
                self.outputs[key] = value
                if key_versions.get(key, since + 1) > since:
                    published[f"{name}.{key}"] = published[key] = version
            synced[position] = component.outputs_version
        self.outputs_version = version

    # ------------------------------------------------------------------
    def program(self, ctx: ProcessContext) -> Program:
        """Advance the components round-robin, one operation per step.

        Each component's collects are expanded into single reads, so every
        read is one turn of the rotation.
        """
        active: List[Tuple[str, ProcessAutomaton, Program]] = []
        for name, component in self._components:
            program = _expand_collects(component.program(component.context()))
            active.append((name, component, program))

        pending: Dict[str, Any] = {name: None for name, _, _ in active}
        started: Dict[str, bool] = {name: False for name, _, _ in active}

        while active:
            still_active: List[Tuple[str, ProcessAutomaton, Program]] = []
            for name, component, generator in active:
                try:
                    if not started[name]:
                        started[name] = True
                        op = generator.send(None)
                    else:
                        op = generator.send(pending[name])
                except StopIteration:
                    self._sync_outputs()
                    continue
                # Publishes made by the component while computing this
                # operation must be visible as soon as the operation's step
                # executes, so sync both before and after the yield.
                self._sync_outputs()
                result = yield op
                pending[name] = result
                self._sync_outputs()
                still_active.append((name, component, generator))
            active = still_active
        return None


def compose(
    pid: ProcessId,
    n: int,
    **components: ProcessAutomaton,
) -> ComposedAutomaton:
    """Keyword-argument convenience for :class:`ComposedAutomaton`.

    Example: ``compose(pid, n, detector=fd_automaton, agreement=protocol)``.
    Iteration order of the keyword arguments fixes the round-robin order.
    """
    return ComposedAutomaton(pid=pid, n=n, components=list(components.items()))
