"""Deterministic test harness: executor fault injection."""

from .faults import FaultPlan, FaultSpec, crash, exception, hang, corrupt_checkpoint

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "corrupt_checkpoint",
    "crash",
    "exception",
    "hang",
]
