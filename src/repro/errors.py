"""Exception hierarchy for the set-timeliness reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from runtime (simulation) failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed with inconsistent or invalid parameters.

    Examples: a system ``S^i_{j,n}`` with ``i > j``, an agreement problem with
    ``t >= n``, or a schedule generator asked to produce steps for an empty
    process set.  It is also a :class:`ValueError`, so callers that catch the
    built-in for a bad parameter keep working.
    """


class ScheduleError(ReproError):
    """A schedule operation failed (bad process id, exhausted generator, ...)."""


class SimulationError(ReproError):
    """The simulator was driven into an invalid state.

    Typical causes: scheduling a process whose automaton already terminated, or
    an automaton yielding an object that is not a shared-memory operation.
    """


class RegisterError(ReproError):
    """A shared-memory register operation was invalid (unknown register, bad owner)."""


class ProtocolViolationError(ReproError):
    """An algorithm violated the safety specification it was checked against.

    Raised by verdict checkers (e.g. the (t,k,n)-agreement checker) when a run
    breaks validity or k-agreement.  Liveness shortfalls are reported as data,
    not exceptions, because a finite prefix can never refute an "eventually".
    """


class VerificationError(ReproError):
    """A property verifier was asked to check an ill-formed run or trace."""


class CampaignError(ReproError):
    """A campaign execution could not complete.

    Raised by the campaign engine when worker processes keep dying faster
    than chunks can be salvaged, and by the durable queue when a drain is
    interrupted or runs are quarantined as poison.  The failure is always
    *resumable*: completed work has already been persisted (result cache,
    queue database), so re-running the campaign — or ``repro campaign
    --resume`` — picks up where the crash left off.
    """


class PoisonedRunsError(CampaignError):
    """A campaign's records include runs quarantined after ``max_attempts``.

    Poison runs are never silently dropped: the exception message lists every
    quarantined ``(key, attempts, error)`` triple, and the quarantine table
    remains queryable via ``repro queue status``.
    """
