"""Runtime: process automata, the execution kernel, crash patterns, composition."""

from .automaton import (
    BoundReadOp,
    BoundWriteOp,
    FunctionAutomaton,
    IdleAutomaton,
    ProcessAutomaton,
    ProcessContext,
    Program,
    ReadOp,
    WriteOp,
    validate_operation,
)
from .composition import ComposedAutomaton, compose
from .crash import CrashPattern
from .kernel import EVERY_STEP, ON_PUBLISH
from .simulator import (
    ObserverEntry,
    RunResult,
    Simulator,
    build_simulator,
)

__all__ = [
    "EVERY_STEP",
    "ON_PUBLISH",
    "ObserverEntry",
    "BoundReadOp",
    "BoundWriteOp",
    "FunctionAutomaton",
    "IdleAutomaton",
    "ProcessAutomaton",
    "ProcessContext",
    "Program",
    "ReadOp",
    "WriteOp",
    "validate_operation",
    "ComposedAutomaton",
    "compose",
    "CrashPattern",
    "RunResult",
    "Simulator",
    "build_simulator",
]
