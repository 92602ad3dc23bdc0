"""Trace data structures produced by the functional tracer.

A :class:`PixelTrace` is the contract between the ray tracer and everything
downstream:

* the **heatmap** (step 1 of Zatel) reads its :meth:`PixelTrace.cost` — the
  per-pixel runtime proxy;
* the **GPU timing simulator** replays its alternating compute/ray-trace
  *op pattern* through SMs, RT units and the cache hierarchy.

Every pixel's op pattern is strictly alternating::

    COMPUTE (ray-gen setup) , [ RT (traversal) , COMPUTE (shader) ] * N

which lets warps of 32 pixels execute in lock-step with a shrinking active
mask, exactly like SIMT reconvergence at shader exit.

Every ray's traversal record (``RaySegment.nodes`` / ``.tris``) is an
``array('I')`` of uint32 indices, from the tracer through to the
simulator: a frame holds millions of entries, and a uint32 costs 4 bytes
where a list entry (pointer plus int object) costs about 35.  A frame pickles as flat
columns (see :meth:`FrameTrace.__reduce__`) rather than as millions of
small objects.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["SegmentKind", "RaySegment", "PixelTrace", "FrameTrace"]


class SegmentKind(Enum):
    """What role a traced ray played in the light-transport path."""

    PRIMARY = "primary"
    SHADOW = "shadow"
    REFLECTION = "reflection"
    BOUNCE = "bounce"


#: Segment kinds by their small-integer code (``.ztrace`` and pickles).
KINDS = tuple(SegmentKind)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}


def _as_record(values, name: str) -> array:
    """``values`` as a uint32 ``array``; ``ValueError`` names the field."""
    try:
        return array("I", values)
    except OverflowError as error:
        raise ValueError(
            f"RaySegment.{name}: every index must lie in [0, 2**32)"
        ) from error


@dataclass
class RaySegment:
    """One ray's walk through the scene.

    Attributes:
        kind: the ray's role (primary/shadow/reflection/diffuse bounce).
        nodes: BVH node indices visited, in order, as ``array('I')``.
        tris: triangle indices whose intersection test executed, as
            ``array('I')``.
        hit: whether the ray found an intersection (for shadow rays:
            whether it was occluded).
        shade_instructions: ALU instructions the shader runs after this
            segment returns (hit/miss shading, next-ray setup).

    Any other sequence given for ``nodes``/``tris`` (a hand-built list,
    say) is converted to ``array('I')``; an index outside ``[0, 2**32)``
    raises ``ValueError``.  Tracer output is already an array and passes
    through as is.
    """

    kind: SegmentKind
    nodes: array
    tris: array
    hit: bool
    shade_instructions: int

    def __post_init__(self) -> None:
        if type(self.nodes) is not array or self.nodes.typecode != "I":
            self.nodes = _as_record(self.nodes, "nodes")
        if type(self.tris) is not array or self.tris.typecode != "I":
            self.tris = _as_record(self.tris, "tris")

    def traversal_steps(self) -> int:
        """Number of BVH node visits (the RT unit's work for this ray)."""
        return len(self.nodes)


@dataclass
class PixelTrace:
    """Complete functional trace of one pixel across all its samples."""

    px: int
    py: int
    segments: list[RaySegment] = field(default_factory=list)
    #: Ray-generation setup instructions executed before the first trace.
    raygen_instructions: int = 24

    def total_nodes(self) -> int:
        """Total BVH node visits across all segments."""
        return sum(len(s.nodes) for s in self.segments)

    def total_tris(self) -> int:
        """Total triangle intersection tests across all segments."""
        return sum(len(s.tris) for s in self.segments)

    def total_instructions(self) -> int:
        """Total shader ALU instructions (excluding RT-unit work)."""
        return self.raygen_instructions + sum(
            s.shade_instructions for s in self.segments
        )

    def cost(self) -> float:
        """Per-pixel runtime proxy used to build the execution-time heatmap.

        Weights approximate relative hardware latencies: a node visit is a
        cache access + box test, a triangle test is heavier, and plain ALU
        instructions are cheap.  The heatmap only needs a monotone proxy of
        runtime (the paper profiles wall-clock on a hardware GPU), so the
        exact weights are not critical.
        """
        # One pass over the segments (the three totals fused): every
        # frame's cost map calls this once per pixel.
        nodes = tris = 0
        instructions = self.raygen_instructions
        for segment in self.segments:
            nodes += len(segment.nodes)
            tris += len(segment.tris)
            instructions += segment.shade_instructions
        return 4.0 * nodes + 6.0 * tris + 1.0 * instructions


class _SealedPixels(dict):
    """The read-only pixel mapping of a sealed :class:`FrameTrace`."""

    def _sealed(self, *args, **kwargs):
        raise TypeError("frame trace is sealed; its pixels cannot change")

    __setitem__ = __delitem__ = __ior__ = _sealed
    clear = pop = popitem = setdefault = update = _sealed

    def __reduce__(self):
        return (type(self), (dict(self),))


@dataclass
class FrameTrace:
    """Functional traces for (a subset of) an image plane.

    ``pixels`` maps ``(px, py)`` to that pixel's trace.  A frame trace over
    the full plane is the single most expensive artifact in the pipeline, so
    the harness caches one per (scene, resolution, spp) and every experiment
    replays it.

    The tracers and the ``.ztrace`` loader :meth:`seal` the frames they
    return: the dense cost map is built once, and the frame's pixels and
    plane size can no longer change.  Hand-built frames stay mutable and
    compute costs on demand.

    A frame pickles as flat columns (:meth:`__reduce__`); the harness
    frame cache and the artifact store go through it.
    """

    width: int
    height: int
    samples_per_pixel: int
    scene_name: str
    pixels: dict[tuple[int, int], PixelTrace] = field(default_factory=dict)

    #: Read-only cost map of a sealed frame (a plain attribute, not a
    #: field: it stays out of equality and fingerprints, and frames
    #: pickled before sealing existed unpickle unsealed).
    _costs = None

    def __setattr__(self, name: str, value) -> None:
        if name in ("pixels", "width", "height") and self._costs is not None:
            raise TypeError(f"frame trace is sealed; cannot set {name!r}")
        super().__setattr__(name, value)

    @property
    def sealed(self) -> bool:
        """Whether the frame's pixels are fixed and its cost map built."""
        return self._costs is not None

    def seal(self) -> "FrameTrace":
        """Build the cost map once and freeze the pixels; returns ``self``."""
        if self._costs is None:
            costs = self._compute_cost_map()
            costs.setflags(write=False)
            self.pixels = _SealedPixels(self.pixels)
            self._costs = costs
        return self

    def __reduce__(self):
        """Pickle as flat columns, not one object graph per pixel and ray.

        Per pixel: ``px``, ``py``, raygen instructions and segment count.
        Per segment: kind code, hit, shade instructions, node count and
        triangle count.  Plus one concatenated ``nodes`` buffer and one
        ``tris`` buffer, which unpickling slices back into each segment's
        records in the original pixel and segment order.  A sealed
        frame's cost map travels with it, so the frame unpickles sealed;
        an unsealed frame stays unsealed.  Each pixel's trace is rebuilt
        with its key's coordinates.
        """
        keys = list(self.pixels)
        traces = list(self.pixels.values())
        segments = [s for trace in traces for s in trace.segments]
        pixel_columns = (
            array("q", [x for x, _ in keys]),
            array("q", [y for _, y in keys]),
            array("q", [t.raygen_instructions for t in traces]),
            array("q", [len(t.segments) for t in traces]),
        )
        segment_columns = (
            array("B", [KIND_CODES[s.kind] for s in segments]),
            array("B", [1 if s.hit else 0 for s in segments]),
            array("q", [s.shade_instructions for s in segments]),
            array("q", [len(s.nodes) for s in segments]),
            array("q", [len(s.tris) for s in segments]),
        )
        nodes, tris = array("I"), array("I")
        for segment in segments:
            nodes.extend(segment.nodes)
            tris.extend(segment.tris)
        header = (
            self.width, self.height, self.samples_per_pixel, self.scene_name,
        )
        return (
            _frame_from_columns,
            (
                header,
                pixel_columns,
                segment_columns,
                nodes,
                tris,
                self._costs,
            ),
        )

    def get(self, px: int, py: int) -> PixelTrace:
        """Trace of pixel ``(px, py)``; raises ``KeyError`` if not traced."""
        return self.pixels[(px, py)]

    def _compute_cost_map(self):
        # Imported lazily to keep this module numpy-free for the dataclasses.
        import numpy as np

        grid = np.zeros((self.height, self.width), dtype=np.float64)
        for (px, py), trace in self.pixels.items():
            grid[py, px] = trace.cost()
        return grid

    def cost_map(self):
        """Dense ``height x width`` array of per-pixel costs (0 = untraced)."""
        if self._costs is not None:
            return self._costs.copy()
        return self._compute_cost_map()

    def total_cost(self) -> float:
        """Sum of all traced pixels' costs, as a Python ``float``.

        Costs are integer-valued and far below 2**53, so the sealed map's
        array sum equals the left-to-right sum exactly.
        """
        if self._costs is not None:
            return float(self._costs.sum())
        return sum((t.cost() for t in self.pixels.values()), 0.0)


def _frame_from_columns(
    header, pixel_columns, segment_columns, nodes, tris, costs
) -> FrameTrace:
    """Rebuild a frame pickled by :meth:`FrameTrace.__reduce__`."""
    frame = FrameTrace(*header)
    segments = []
    node_at = tri_at = 0
    for code, hit, shade, node_count, tri_count in zip(
        *(column.tolist() for column in segment_columns)
    ):
        node_end = node_at + node_count
        tri_end = tri_at + tri_count
        segments.append(
            RaySegment(
                KINDS[code], nodes[node_at:node_end], tris[tri_at:tri_end],
                bool(hit), shade,
            )
        )
        node_at, tri_at = node_end, tri_end
    pixels = frame.pixels
    segment_at = 0
    for x, y, raygen, count in zip(
        *(column.tolist() for column in pixel_columns)
    ):
        segment_end = segment_at + count
        pixels[(x, y)] = PixelTrace(
            x, y, segments[segment_at:segment_end], raygen
        )
        segment_at = segment_end
    if costs is not None:
        costs.setflags(write=False)
        frame.pixels = _SealedPixels(pixels)
        frame._costs = costs
    return frame
