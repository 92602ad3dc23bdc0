"""Structured error taxonomy for the execution engine and harness.

Every failure mode the fault-tolerant paths can hit has a dedicated
exception type, so callers can distinguish "a worker died" from "the
cached artifact is unreadable" from "too few groups survived to combine
honestly".  All of them derive from :class:`SimulationError`, which the
CLI maps to a non-zero exit code with a one-line message.

:class:`FailureRecord` is the audit entry attached to degraded results:
one record per permanently-failed group, preserving what went wrong and
how many attempts were spent before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SimulationError",
    "GroupTimeoutError",
    "WorkerCrashError",
    "CacheCorruptionError",
    "DegradedResultError",
    "FailureRecord",
]


class SimulationError(RuntimeError):
    """Base class for all structured simulation/execution failures."""


class GroupTimeoutError(SimulationError):
    """A group simulation exceeded its per-attempt wall-clock budget."""


class WorkerCrashError(SimulationError):
    """A worker process died (segfault, OOM-kill, ``os._exit``) without
    reporting a result."""


class CacheCorruptionError(SimulationError):
    """An on-disk cached artifact (frame trace, full-sim stats, group
    checkpoint) failed to load — typically a truncated pickle from an
    interrupted run.  Loaders delete the file and recompute; this error
    is raised only when recovery is impossible, otherwise it is logged."""


class DegradedResultError(SimulationError):
    """Too few groups survived to produce a trustworthy combined result
    (quorum violation), or a degraded result was used where full
    coverage is required."""


@dataclass(frozen=True)
class FailureRecord:
    """Audit entry for one permanently-failed group.

    Attributes:
        index: the group's index in the image-plane partition.
        error: exception class name of the final failure
            (e.g. ``"WorkerCrashError"``, ``"GroupTimeoutError"``).
        message: human-readable detail of the final failure.
        attempts: total attempts spent (first try + retries).
        pixel_count: pixels the group covered; lets degraded combines
            and reports quantify lost plane coverage.
        retryable: ``False`` when the error is one a second attempt
            cannot change (a ``ValueError``, ``KeyError`` or
            ``TypeError`` from the task), so it was not retried.
    """

    index: int
    error: str
    message: str
    attempts: int
    pixel_count: int = 0
    retryable: bool = True

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"group {self.index}: {self.error} after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''}"
            f"{'' if self.retryable else ' (not retried)'}"
            f" — {self.message}"
        )
