"""Common vocabulary for failure-detector automata.

A failure detector in the paper is an oracle attached to each process whose
output is a local variable the process can read for free.  In this library a
detector is just a :class:`~repro.runtime.automaton.ProcessAutomaton` that
*publishes* its output under well-known keys; algorithms that use the detector
either read those published keys from a composed sibling automaton (see
:mod:`repro.runtime.composition`) or embed the detector's generator directly.

Published output keys
---------------------
``FD_OUTPUT``
    The k-anti-Ω output ``fdOutput`` — a frozenset of ``n - k`` suspected
    processes (the complement of the current winner set).
``WINNER_SET``
    The current winner set ``winnerset`` — a tuple of ``k`` process ids.  The
    paper's Figure 2 algorithm computes it as an intermediate value; its
    eventual global stabilization (Lemma 22) is the stronger property our
    agreement layer builds on.
``LEADER``
    For Ω-style detectors (``k = 1``): the single current leader.
``ITERATION``
    Number of completed main-loop iterations, for instrumentation.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..runtime.automaton import ProcessAutomaton
from ..runtime.observers import OutputTracker
from ..types import ProcessId

FD_OUTPUT = "fdOutput"
WINNER_SET = "winnerset"
LEADER = "leader"
ITERATION = "iteration"


def make_detector_trackers() -> "Tuple[OutputTracker, OutputTracker]":
    """The ``(fdOutput, winnerset)`` tracker pair detector experiments attach.

    Both trackers declare the ``on_publish`` observer capability, so a
    simulator carrying them may run on either loop — including the
    publication-gated ``run_fast`` — and still record byte-identical change
    sequences.
    """
    return OutputTracker(key=FD_OUTPUT), OutputTracker(key=WINNER_SET)


class FailureDetectorAutomaton(ProcessAutomaton):
    """Base class for detector automata: standard accessors over published keys."""

    def fd_output(self) -> Any:
        """The currently published suspicion set (``None`` before the first loop)."""
        return self.output(FD_OUTPUT)

    def winner_set(self) -> Any:
        """The currently published winner set (``None`` before the first loop)."""
        return self.output(WINNER_SET)

    def iteration(self) -> int:
        """Completed main-loop iterations."""
        return int(self.output(ITERATION, 0))


def fd_outputs_of(outputs: Dict[ProcessId, Dict[str, Any]]) -> Dict[ProcessId, Any]:
    """Extract the ``fdOutput`` entry from a ``RunResult.outputs`` mapping."""
    return {pid: process_outputs.get(FD_OUTPUT) for pid, process_outputs in outputs.items()}
