"""Warp-level operation stream and warp execution state.

The GPU executes *warps* of 32 threads in lock-step.  A warp's program is a
list of warp-level ops compiled from its threads' pixel traces
(:mod:`repro.gpu.frontend`):

* :class:`ComputeOp` — shader ALU work; each lane carries its own dynamic
  instruction count (0 = lane masked off), the warp occupies the issue port
  for the *maximum* lane count (SIMT lock-step), and the instruction
  statistic adds the *sum* (per-thread instruction counting).
* :class:`TraceOp` — a ``traceRayEXT`` hand-off to the SM's RT unit; each
  lane names the BVH node / triangle index sequences its ray will touch
  (a segment id into the frame's records, never a copy of them).
* :class:`StoreOp` — the framebuffer write-back at shader exit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from ..tracer.trace import lane_columns

__all__ = ["ComputeOp", "TraceOp", "StoreOp", "WarpOp", "WarpTask", "WarpState"]


@dataclass
class ComputeOp:
    """Warp-wide ALU work; ``per_thread_instructions[i] == 0`` = masked lane."""

    per_thread_instructions: tuple[int, ...]

    def issue_cycles(self) -> int:
        """Cycles the warp occupies the issue port (lock-step maximum)."""
        return max(self.per_thread_instructions, default=0)

    def instruction_count(self) -> int:
        """Dynamic thread-instructions executed (per-thread sum)."""
        return sum(self.per_thread_instructions)

    def active_lanes(self) -> int:
        return sum(1 for n in self.per_thread_instructions if n > 0)


class TraceOp:
    """A warp's ray-traversal op; a masked lane has no ray this bounce.

    An op holds frame columns (:class:`~repro.tracer.trace.FrameColumns`)
    and one segment id per lane (-1 = masked), never a per-lane object or
    a copy of a record; :meth:`lane_records` hands out zero-copy buffer
    views when a traversal starts.
    :func:`~repro.gpu.frontend.compile_kernel` builds ops over the frame's
    own columns with :meth:`from_records`; the constructor packs
    hand-built per-lane index sequences (``None`` = masked) into columns
    of their own.
    """

    __slots__ = ("records", "segments")

    def __init__(
        self,
        per_thread_nodes: tuple[Sequence[int] | None, ...] = (),
        per_thread_tris: tuple[Sequence[int] | None, ...] = (),
    ) -> None:
        self.records, self.segments = lane_columns(
            per_thread_nodes, per_thread_tris
        )

    @classmethod
    def from_records(cls, records, segments) -> "TraceOp":
        """An op over ``records`` (frame columns): lane ``i`` traces
        segment ``segments[i]``, or nothing when it is negative."""
        op = cls.__new__(cls)
        op.records = records
        op.segments = segments
        return op

    def lane_records(self) -> tuple[list, list]:
        """Node and triangle index sequences of the live lanes, lane order."""
        return self.records.lane_records(self.segments)

    @property
    def per_thread_nodes(self) -> tuple[Sequence[int] | None, ...]:
        """Each lane's node sequence (``None`` = masked)."""
        return tuple(
            self.records.records(s)[0] if s >= 0 else None
            for s in self.segments
        )

    @property
    def per_thread_tris(self) -> tuple[Sequence[int] | None, ...]:
        """Each lane's triangle sequence (``None`` = masked)."""
        return tuple(
            self.records.records(s)[1] if s >= 0 else None
            for s in self.segments
        )

    def active_lanes(self) -> int:
        return sum(1 for s in self.segments if s >= 0)

    def max_node_steps(self) -> int:
        """Traversal steps the RT unit runs (lock-step over the longest ray)."""
        return max(map(len, self.lane_records()[0]), default=0)

    def max_tri_steps(self) -> int:
        return max(map(len, self.lane_records()[1]), default=0)

    def instruction_count(self) -> int:
        """One ``traceRayEXT`` instruction per lane with a ray."""
        return self.active_lanes()


@dataclass
class StoreOp:
    """Framebuffer write-back; ``None`` lanes store nothing."""

    per_thread_addresses: tuple[int | None, ...]

    def active_lanes(self) -> int:
        return sum(1 for a in self.per_thread_addresses if a is not None)

    def instruction_count(self) -> int:
        return self.active_lanes()


WarpOp = ComputeOp | TraceOp | StoreOp


@dataclass
class WarpTask:
    """A compiled warp: its pixels and the op stream they execute."""

    warp_id: int
    pixels: tuple[tuple[int, int], ...]
    ops: list[WarpOp] = field(default_factory=list)
    #: Lanes that trace a ray vs. lanes filtered out by ``filter_shader``.
    live_pixels: int = 0
    filtered_pixels: int = 0

    def instruction_count(self) -> int:
        """Total dynamic thread-instructions in the warp's program."""
        return sum(op.instruction_count() for op in self.ops)


@dataclass
class WarpState:
    """Runtime state of a warp inside the simulator."""

    task: WarpTask
    sm_index: int
    #: Position in the op stream; the warp completes when this reaches
    #: ``len(task.ops)``.
    op_index: int = 0
    #: Cycle at which the warp's next op may issue.
    ready_cycle: float = 0.0
    #: Activation order, used as the age key for greedy-then-oldest issue.
    age: int = 0
    #: In-flight RT traversal (set while the current op is a TraceOp being
    #: stepped through the RT unit).
    job: object | None = None
    #: Whether the current TraceOp already paid its issue cycle and was
    #: counted (set on the first slot-acquisition attempt; survives parking
    #: in an RT unit's wait queue).
    trace_issued: bool = False
    #: RT unit chosen for the current TraceOp (pinned across parking).
    rt_unit: object | None = None
    #: Cycle this warp became resident on its SM (occupancy accounting).
    activated_cycle: float = 0.0
    #: Cycle this warp parked in an RT unit's wait queue (telemetry:
    #: the park-to-wake span becomes an ``rt_wait`` timeline window).
    parked_cycle: float = 0.0
    #: Precomputed per-op dispatch table (kind code + derived scalars),
    #: attached by the event loop so the per-pop path neither walks
    #: an ``isinstance`` chain nor recomputes lane reductions.
    program: tuple = ()
