"""Trace data structures produced by the functional tracer.

A pixel's trace is the contract between the ray tracer and everything
downstream:

* the **heatmap** (step 1 of Zatel) reads its cost — the per-pixel
  runtime proxy;
* the **GPU timing simulator** replays its alternating compute/ray-trace
  *op pattern* through SMs, RT units and the cache hierarchy.

Every pixel's op pattern is strictly alternating::

    COMPUTE (ray-gen setup) , [ RT (traversal) , COMPUTE (shader) ] * N

which lets warps of 32 pixels execute in lock-step with a shrinking active
mask, exactly like SIMT reconvergence at shader exit.

A sealed :class:`FrameTrace` stores its traces as columns
(:class:`FrameColumns`), in compressed-sparse-row form: per pixel a
segment range and the raygen count; per segment the kind code, the hit
flag, the shade count and node/triangle ranges; and one uint32 node
buffer and one uint32 triangle buffer for the whole frame.  A frame holds
millions of record entries and ~10^5 segments, so no per-segment object
exists: :class:`PixelTrace` and :class:`RaySegment` objects of a sealed
frame are read-only views, built only when someone asks for one.  This
module alone knows the offset layout; readers go through
:class:`FrameColumns` methods.

Hand-built frames stay mutable dicts of :class:`PixelTrace` objects until
:meth:`FrameTrace.seal`, which packs them with the same function every
reader uses (:meth:`FrameTrace.columns`), so nothing downstream sees a
second representation.
"""

from __future__ import annotations

import weakref
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from itertools import zip_longest

import numpy as np

__all__ = [
    "SegmentKind", "RaySegment", "PixelTrace", "FrameColumns", "FrameTrace",
    "lane_columns",
]


class SegmentKind(Enum):
    """What role a traced ray played in the light-transport path."""

    PRIMARY = "primary"
    SHADOW = "shadow"
    REFLECTION = "reflection"
    BOUNCE = "bounce"


#: Segment kinds by their small-integer code (columns and ``.ztrace``).
KINDS = tuple(SegmentKind)
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

#: Ray-generation setup instructions a traced pixel runs before its first ray.
RAYGEN_INSTRUCTIONS = 24


def _as_record(values, name: str) -> array:
    """``values`` as a uint32 ``array``; ``ValueError`` names the field."""
    if type(values) is array and values.typecode == "I":
        return values
    try:
        return array("I", values)
    except OverflowError as error:
        raise ValueError(
            f"RaySegment.{name}: every index must lie in [0, 2**32)"
        ) from error


def _sealed(self, *args, **kwargs):
    raise TypeError("frame trace is sealed; its traces cannot change")


@dataclass(eq=False)
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
    raises ``ValueError``.  Segments compare equal by value, whether
    hand-built or a view of a sealed frame.
    """

    kind: SegmentKind
    nodes: array
    tris: array
    hit: bool
    shade_instructions: int

    def __post_init__(self) -> None:
        self.nodes = _as_record(self.nodes, "nodes")
        self.tris = _as_record(self.tris, "tris")

    def _values(self) -> tuple:
        return (
            self.kind, self.nodes, self.tris, self.hit, self.shade_instructions
        )

    def __eq__(self, other):
        if not isinstance(other, RaySegment):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # type: ignore[assignment]

    def traversal_steps(self) -> int:
        """Number of BVH node visits (the RT unit's work for this ray)."""
        return len(self.nodes)


class _SegmentView(RaySegment):
    """A read-only :class:`RaySegment` of a sealed frame."""

    def __init__(self, kind, nodes, tris, hit, shade_instructions) -> None:
        self.__dict__.update(
            kind=kind, nodes=nodes, tris=tris, hit=hit,
            shade_instructions=shade_instructions,
        )

    __setattr__ = __delattr__ = _sealed


@dataclass(eq=False)
class PixelTrace:
    """Complete functional trace of one pixel across all its samples."""

    px: int
    py: int
    segments: list[RaySegment] = field(default_factory=list)
    #: Ray-generation setup instructions executed before the first trace.
    raygen_instructions: int = RAYGEN_INSTRUCTIONS

    def __eq__(self, other):
        if not isinstance(other, PixelTrace):
            return NotImplemented
        return (self.px, self.py, self.raygen_instructions) == (
            other.px, other.py, other.raygen_instructions
        ) and list(self.segments) == list(other.segments)

    __hash__ = None  # type: ignore[assignment]

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
        exact weights are not critical.  :meth:`FrameColumns.pixel_costs`
        computes the same sum for every pixel of a frame at once.
        """
        # One pass over the segments (the three totals fused).
        nodes = tris = 0
        instructions = self.raygen_instructions
        for segment in self.segments:
            nodes += len(segment.nodes)
            tris += len(segment.tris)
            instructions += segment.shade_instructions
        return 4.0 * nodes + 6.0 * tris + 1.0 * instructions


class _PixelView(PixelTrace):
    """A read-only :class:`PixelTrace` of a sealed frame (tuple segments)."""

    def __init__(self, px, py, segments, raygen_instructions) -> None:
        self.__dict__.update(
            px=px, py=py, segments=tuple(segments),
            raygen_instructions=raygen_instructions,
        )

    __setattr__ = __delattr__ = _sealed


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (``len(counts) + 1`` entries, from 0) of group sizes."""
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    offsets.setflags(write=False)
    return offsets


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only 1-D array of ``dtype``.

    An array of that dtype is taken as is (no copy): producers hand over
    buffers they no longer write.
    """
    if isinstance(values, array):
        values = np.frombuffer(values, dtype=np.uint32)
    column = np.asarray(values, dtype=dtype)
    column.setflags(write=False)
    return column


class FrameColumns:
    """A frame's traces as columns, in compressed-sparse-row form.

    Pixels are rows in the frame's pixel order.  Pixel ``p``'s segments are
    ``segment_offsets[p]:segment_offsets[p + 1]``; segment ``s``'s node
    record is ``nodes[node_offsets[s]:node_offsets[s + 1]]`` and its
    triangle record likewise in ``tris``.  Every column is a read-only
    NumPy array.  Readers use the methods below, never the offsets, so the
    layout can change here alone.

    The constructor takes *counts* (segments per pixel, entries per
    record) and builds the offsets; ``nodes``/``tris`` may be ``array('I')``
    or anything NumPy converts to uint32.
    """

    __slots__ = (
        "width", "height", "px", "py", "raygen", "segment_offsets", "kind",
        "hit", "shade", "node_offsets", "nodes", "tri_offsets", "tris",
        "_index", "_at",
    )

    def __init__(
        self, width, height, px, py, raygen, segment_counts,
        kind, hit, shade, node_counts, nodes, tri_counts, tris,
    ) -> None:
        self.width = width
        self.height = height
        self.px = _column(px, np.int32)
        self.py = _column(py, np.int32)
        self.raygen = _column(raygen, np.int64)
        self.segment_offsets = _offsets(_column(segment_counts, np.int64))
        self.kind = _column(kind, np.uint8)
        self.hit = _column(hit, np.bool_)
        self.shade = _column(shade, np.int64)
        self.node_offsets = _offsets(_column(node_counts, np.int64))
        self.nodes = _column(nodes, np.uint32)
        self.tri_offsets = _offsets(_column(tri_counts, np.int64))
        self.tris = _column(tris, np.uint32)
        if (
            self.node_offsets[-1] != self.nodes.shape[0]
            or self.tri_offsets[-1] != self.tris.shape[0]
            or self.segment_offsets[-1] != self.kind.shape[0]
        ):
            raise ValueError("frame columns disagree on their lengths")
        self._index = None
        # Memoryviews for element reads: indexing one yields a Python int.
        self._at = tuple(
            memoryview(column)
            for column in (
                self.segment_offsets, self.raygen, self.shade,
                self.node_offsets, self.nodes, self.tri_offsets, self.tris,
            )
        )

    def state(self) -> tuple:
        """Constructor arguments that rebuild these columns (pickling)."""
        return (
            self.width, self.height, self.px, self.py, self.raygen,
            np.diff(self.segment_offsets), self.kind, self.hit, self.shade,
            np.diff(self.node_offsets), self.nodes,
            np.diff(self.tri_offsets), self.tris,
        )

    def equals(self, other: "FrameColumns") -> bool:
        """Whether both hold the same traces in the same pixel order."""
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self.state(), other.state())
        )

    # ------------------------------------------------------------------
    # sizes and whole-frame reductions
    # ------------------------------------------------------------------

    @property
    def pixel_count(self) -> int:
        return self.px.shape[0]

    @property
    def segment_count(self) -> int:
        return self.kind.shape[0]

    def entry_count(self) -> int:
        """Node plus triangle record entries across the frame."""
        return self.nodes.shape[0] + self.tris.shape[0]

    def pixel_totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per pixel: node visits, triangle tests and shader instructions.

        The sums :meth:`PixelTrace.total_nodes`, :meth:`~PixelTrace.total_tris`
        and :meth:`~PixelTrace.total_instructions` return, as int64 arrays
        in pixel order.
        """
        starts = self.segment_offsets[:-1]
        ends = self.segment_offsets[1:]
        nodes = self.node_offsets[ends] - self.node_offsets[starts]
        tris = self.tri_offsets[ends] - self.tri_offsets[starts]
        shade = _offsets(self.shade)
        return nodes, tris, self.raygen + (shade[ends] - shade[starts])

    def pixel_costs(self) -> np.ndarray:
        """:meth:`PixelTrace.cost` of every pixel, in pixel order (float64).

        The same operations in the same order on exact integer values, so
        every cost carries the per-pixel method's bits.
        """
        nodes, tris, instructions = self.pixel_totals()
        return 4.0 * nodes + 6.0 * tris + 1.0 * instructions

    def cost_map(self) -> np.ndarray:
        """Dense ``height x width`` float64 cost map (0 = untraced).

        Raises:
            IndexError: if a pixel lies outside the image plane.
        """
        self._check_plane()
        grid = np.zeros((self.height, self.width), dtype=np.float64)
        grid[self.py, self.px] = self.pixel_costs()
        return grid

    def _check_plane(self) -> None:
        if self.pixel_count and (
            self.px.min() < 0 or self.px.max() >= self.width
            or self.py.min() < 0 or self.py.max() >= self.height
        ):
            raise IndexError(
                f"pixel outside the {self.width}x{self.height} image plane"
            )

    # ------------------------------------------------------------------
    # per-pixel and per-segment access
    # ------------------------------------------------------------------

    def row(self, pixel) -> int:
        """Row of ``pixel`` (an ``(x, y)`` pair); ``KeyError`` if untraced."""
        if self._index is None:
            self._check_plane()
            index = np.full(self.width * self.height, -1, dtype=np.int32)
            index[self.py.astype(np.int64) * self.width + self.px] = np.arange(
                self.pixel_count, dtype=np.int32
            )
            self._index = memoryview(index)
        try:
            x, y = pixel
            if 0 <= x < self.width and 0 <= y < self.height:
                row = self._index[y * self.width + x]
                if row >= 0:
                    return row
        except (TypeError, ValueError):
            pass
        raise KeyError(pixel)

    def keys(self):
        """Pixel coordinates in row order."""
        return zip(self.px.tolist(), self.py.tolist())

    def rows(self):
        """``(px, py, raygen instructions, segment ids)`` of every pixel,
        in row order."""
        offsets = self.segment_offsets.tolist()
        return zip(
            self.px.tolist(), self.py.tolist(), self.raygen.tolist(),
            map(range, offsets[:-1], offsets[1:]),
        )

    def slot(self, pixel) -> tuple[int, range]:
        """Raygen instructions and segment ids of ``pixel``, in path order.

        Raises:
            KeyError: if ``pixel`` has no trace.
        """
        row = self.row(pixel)
        offsets, raygen = self._at[0], self._at[1]
        return raygen[row], range(offsets[row], offsets[row + 1])

    def shade_of(self, segment: int) -> int:
        return self._at[2][segment]

    def records(self, segment: int) -> tuple[memoryview, memoryview]:
        """Node and triangle records of ``segment`` as uint32 buffer views.

        Zero-copy: a view keeps the frame's buffer alive, not a copy.
        """
        _, _, _, node_offsets, nodes, tri_offsets, tris = self._at
        return (
            nodes[node_offsets[segment]:node_offsets[segment + 1]],
            tris[tri_offsets[segment]:tri_offsets[segment + 1]],
        )

    def lane_records(self, segments) -> tuple[list, list]:
        """Node and triangle records of the ids ``>= 0`` in ``segments``."""
        _, _, _, node_offsets, nodes, tri_offsets, tris = self._at
        live = [s for s in segments if s >= 0]
        return (
            [nodes[node_offsets[s]:node_offsets[s + 1]] for s in live],
            [tris[tri_offsets[s]:tri_offsets[s + 1]] for s in live],
        )

    def segment(self, segment: int, view: bool = True) -> RaySegment:
        """Segment ``segment`` as a read-only view (or a mutable copy)."""
        nodes, tris = self.records(segment)
        return (_SegmentView if view else RaySegment)(
            KINDS[self.kind[segment]],
            array("I", nodes.tobytes()),
            array("I", tris.tobytes()),
            bool(self.hit[segment]),
            self.shade_of(segment),
        )

    def pixel(self, row: int, view: bool = True) -> PixelTrace:
        """Pixel ``row``'s trace as a read-only view (or a mutable copy)."""
        offsets, raygen = self._at[0], self._at[1]
        segments = [
            self.segment(s, view) for s in range(offsets[row], offsets[row + 1])
        ]
        return (_PixelView if view else PixelTrace)(
            int(self.px[row]), int(self.py[row]), segments, raygen[row]
        )


def lane_columns(per_lane_nodes, per_lane_tris) -> tuple[FrameColumns, array]:
    """Hand-built per-lane records as one pixel's columns plus segment ids.

    Lane ``i`` becomes segment ``segments[i]`` of the returned columns, or
    ``-1`` when its node sequence is ``None`` (a masked lane); a ``None``
    triangle sequence of a live lane is empty.
    """
    lanes = list(zip_longest(per_lane_nodes, per_lane_tris))
    segments = array("q")
    nodes, tris = array("I"), array("I")
    node_counts, tri_counts = [], []
    for lane_nodes, lane_tris in lanes:
        if lane_nodes is None:
            segments.append(-1)
            continue
        segments.append(len(node_counts))
        lane_nodes = _as_record(lane_nodes, "nodes")
        lane_tris = _as_record(lane_tris or (), "tris")
        nodes.extend(lane_nodes)
        tris.extend(lane_tris)
        node_counts.append(len(lane_nodes))
        tri_counts.append(len(lane_tris))
    live = len(node_counts)
    columns = FrameColumns(
        1, 1, [0], [0], [0], [live],
        [0] * live, [False] * live, [0] * live,
        node_counts, nodes, tri_counts, tris,
    )
    return columns, segments


def _pack(frame: "FrameTrace") -> FrameColumns:
    """A hand-built frame's pixel dict as columns, in its pixel order."""
    keys = list(frame.pixels)
    traces = list(frame.pixels.values())
    segments = [s for trace in traces for s in trace.segments]
    nodes, tris = array("I"), array("I")
    for segment in segments:
        nodes.extend(_as_record(segment.nodes, "nodes"))
        tris.extend(_as_record(segment.tris, "tris"))
    return FrameColumns(
        frame.width,
        frame.height,
        [x for x, _ in keys],
        [y for _, y in keys],
        [t.raygen_instructions for t in traces],
        [len(t.segments) for t in traces],
        [KIND_CODES[s.kind] for s in segments],
        [bool(s.hit) for s in segments],
        [s.shade_instructions for s in segments],
        [len(s.nodes) for s in segments],
        nodes,
        [len(s.tris) for s in segments],
        tris,
    )


class _SealedPixels(Mapping):
    """The read-only pixel mapping of a sealed :class:`FrameTrace`.

    Values are :class:`PixelTrace` views built from the columns on
    request; a view stays the pixel's value while anyone holds it, so a
    pixel read twice is the same object, as it was when frames held
    their traces as objects.
    """

    __slots__ = ("_columns", "_views")

    def __init__(self, columns: FrameColumns) -> None:
        self._columns = columns
        self._views = weakref.WeakValueDictionary()

    def __getitem__(self, pixel) -> PixelTrace:
        row = self._columns.row(pixel)
        view = self._views.get(row)
        if view is None:
            view = self._views[row] = self._columns.pixel(row)
        return view

    def __contains__(self, pixel) -> bool:
        try:
            self._columns.row(pixel)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return self._columns.keys()

    def __len__(self) -> int:
        return self._columns.pixel_count

    __setitem__ = __delitem__ = __ior__ = _sealed
    clear = pop = popitem = setdefault = update = _sealed


@dataclass(eq=False)
class FrameTrace:
    """Functional traces for (a subset of) an image plane.

    ``pixels`` maps ``(px, py)`` to that pixel's trace.  A frame trace over
    the full plane is the single most expensive artifact in the pipeline, so
    the harness caches one per (scene, resolution, spp) and every experiment
    replays it.

    The tracers and the ``.ztrace`` loader return *sealed* frames: the
    traces live in :class:`FrameColumns`, the dense cost map is built
    once, and the pixels and plane size can no longer change (``pixels``
    becomes a read-only mapping of views).  Hand-built frames stay
    mutable until :meth:`seal`; :meth:`columns` packs them on demand.

    A frame pickles as its columns (:meth:`__reduce__`); the harness
    frame cache and the artifact store go through it.
    """

    width: int
    height: int
    samples_per_pixel: int
    scene_name: str
    pixels: dict[tuple[int, int], PixelTrace] = field(default_factory=dict)

    #: Read-only cost map and columns of a sealed frame (plain
    #: attributes, not fields: they stay out of equality and fingerprints).
    _costs = None
    _columns = None

    def __setattr__(self, name: str, value) -> None:
        if name in ("pixels", "width", "height") and self._costs is not None:
            raise TypeError(f"frame trace is sealed; cannot set {name!r}")
        super().__setattr__(name, value)

    @classmethod
    def from_columns(
        cls, columns: FrameColumns, samples_per_pixel: int, scene_name: str
    ) -> "FrameTrace":
        """A sealed frame over ``columns`` (no copy).

        Raises:
            IndexError: if a pixel lies outside the image plane.
        """
        frame = cls(columns.width, columns.height, samples_per_pixel, scene_name)
        return frame._seal(columns)

    @property
    def sealed(self) -> bool:
        """Whether the frame's pixels are fixed and its cost map built."""
        return self._costs is not None

    def seal(self) -> "FrameTrace":
        """Pack the pixels into columns and build the cost map; returns ``self``.

        Raises:
            IndexError: if a pixel lies outside the image plane.
        """
        if self._costs is None:
            self._seal(_pack(self))
        return self

    def _seal(self, columns: FrameColumns) -> "FrameTrace":
        costs = columns.cost_map()
        costs.setflags(write=False)
        self.pixels = _SealedPixels(columns)
        self._columns = columns
        self._costs = costs
        return self

    def columns(self) -> FrameColumns:
        """The frame's traces as columns: kept when sealed, else packed now."""
        if self._columns is not None:
            return self._columns
        return _pack(self)

    def __eq__(self, other):
        if not isinstance(other, FrameTrace):
            return NotImplemented
        if (self.width, self.height, self.samples_per_pixel, self.scene_name) != (
            other.width, other.height, other.samples_per_pixel, other.scene_name
        ):
            return False
        if self.sealed and other.sealed and self._columns.equals(other._columns):
            return True
        return dict(self.pixels) == dict(other.pixels)

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        """Pickle as columns, not one object graph per pixel and ray.

        A sealed frame unpickles sealed (its cost map is rebuilt from the
        columns); an unsealed frame unpickles as mutable pixel objects.
        Each pixel's trace is rebuilt with its key's coordinates.
        """
        return (
            _frame_from_columns,
            (
                self.samples_per_pixel,
                self.scene_name,
                self.columns().state(),
                self.sealed,
            ),
        )

    def get(self, px: int, py: int) -> PixelTrace:
        """Trace of pixel ``(px, py)``; raises ``KeyError`` if not traced."""
        return self.pixels[(px, py)]

    def cost_map(self):
        """Dense ``height x width`` array of per-pixel costs (0 = untraced)."""
        if self._costs is not None:
            return self._costs.copy()
        return self.columns().cost_map()

    def total_cost(self) -> float:
        """Sum of all traced pixels' costs, as a Python ``float``.

        Costs are integer-valued and far below 2**53, so any summation
        order gives the left-to-right sum exactly.
        """
        if self._costs is not None:
            return float(self._costs.sum())
        return float(self.columns().pixel_costs().sum())


def _frame_from_columns(samples_per_pixel, scene_name, state, sealed) -> FrameTrace:
    """Rebuild a frame pickled by :meth:`FrameTrace.__reduce__`."""
    columns = FrameColumns(*state)
    if sealed:
        return FrameTrace.from_columns(columns, samples_per_pixel, scene_name)
    frame = FrameTrace(columns.width, columns.height, samples_per_pixel, scene_name)
    for row, key in enumerate(columns.keys()):
        frame.pixels[key] = columns.pixel(row, view=False)
    return frame
