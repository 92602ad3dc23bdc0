"""Bounding volume hierarchy construction and traversal.

The BVH is the acceleration structure every ray walks, and — crucially for
this reproduction — the *node indices a ray visits* are what the GPU timing
model replays through the cache hierarchy.  Traversal therefore optionally
records visited node indices and tested primitive indices into a
:class:`TraversalRecord`, as compact ``array('I')`` (uint32) buffers that
travel unchanged through the frame trace to the simulator.

Two build strategies are provided:

* ``median`` — split on the centroid median of the longest axis (fast,
  predictable tree shape; handy in tests).
* ``sah`` — binned surface-area-heuristic split (better trees for the
  clutter-heavy library scenes; the default).

The build runs NumPy reductions level by level, over the primitives of
every open node of a tree level at once, and produces exactly the tree of
a scalar per-primitive recursive build.  The tree is stored as node
arrays; the packet tracer (:mod:`repro.scene.bvh_packet`) reads those.
Scalar traversal, kept for rays the packet kernels hand back, walks
per-node Python tuples built from the arrays on first use: per-node numpy
ops on 3-vectors cost microseconds each.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import AABB, HitRecord, Ray, Triangle

__all__ = ["BVHNode", "BVH", "TraversalRecord", "build_bvh"]

#: Number of SAH candidate planes evaluated per axis.
_SAH_BINS = 8

#: Leaves stop subdividing at or below this primitive count.
_LEAF_SIZE = 4

_INF = float("inf")

# Traversal records are uint32 arrays; the ``.ztrace`` writer and the
# columnar frame pickle copy their raw bytes as 4-byte indices.
if array("I").itemsize != 4:
    raise ImportError("traversal records need a 4-byte array('I') item")


@dataclass
class BVHNode:
    """One node of the BVH, as :attr:`BVH.nodes` materializes it.

    Interior nodes have ``left``/``right`` child indices; leaves carry a
    ``first``/``count`` range into the BVH's primitive-index permutation.
    """

    bounds: AABB
    left: int = -1
    right: int = -1
    first: int = 0
    count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.count > 0


@dataclass
class TraversalRecord:
    """Trace of one ray's walk through the BVH.

    ``nodes_visited`` holds node indices in visit order; ``tris_tested``
    holds primitive indices whose intersection test actually ran.  Both are
    ``array('I')`` (uint32, about 4 B an entry against some 35 B for a list
    of Python ints), the same type the packet kernels emit.  These feed the
    shader model and the GPU timing simulator's memory streams.
    """

    nodes_visited: array = field(default_factory=lambda: array("I"))
    tris_tested: array = field(default_factory=lambda: array("I"))


class BVH:
    """An immutable BVH over a list of triangles, stored as node arrays.

    Build via :func:`build_bvh`.  Node ``i`` spans ``node_lo[i]`` to
    ``node_hi[i]``; interior nodes link ``node_left``/``node_right`` (-1
    on leaves), leaves a ``node_first``/``node_count`` range into
    ``order``, the permutation of the caller's triangle list induced by
    the build.  ``node_depth`` is each node's level (root = 0) and
    ``vertices`` the triangles' corners as a ``(3, N, 3)`` array.  Nodes
    are numbered in depth-first preorder, left child first.

    The per-node objects (:attr:`nodes`) and the scalar tuples that
    :meth:`intersect`/:meth:`occluded` walk are built on first use only:
    packet traversal reads the arrays directly.
    """

    def __init__(
        self,
        triangles: list[Triangle],
        vertices: np.ndarray,
        node_lo: np.ndarray,
        node_hi: np.ndarray,
        node_left: np.ndarray,
        node_right: np.ndarray,
        node_first: np.ndarray,
        node_count: np.ndarray,
        node_depth: np.ndarray,
        order: np.ndarray,
    ) -> None:
        self.triangles = triangles
        self.vertices = vertices
        self.node_lo = node_lo
        self.node_hi = node_hi
        self.node_left = node_left
        self.node_right = node_right
        self.node_first = node_first
        self.node_count = node_count
        self.node_depth = node_depth
        self.order = order

    @property
    def num_nodes(self) -> int:
        return self.node_lo.shape[0]

    def depth(self) -> int:
        """Maximum leaf depth (root = depth 0)."""
        return int(self.node_depth.max())

    @cached_property
    def order_hints(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node closest-hit child-order hint, as ``(axis, left_is_lower)``.

        For an interior node: the axis of largest child centroid
        separation and whether the left child sits on its lower side.
        Leaves get ``(0, True)`` placeholders.
        """
        lo, hi = self.node_lo, self.node_hi
        centers = 0.5 * (lo + hi)  # AABB.centroid()
        sep = centers[self.node_left] - centers[self.node_right]
        axis = np.argmax(np.abs(sep), axis=1)
        left_is_lower = sep[np.arange(self.num_nodes), axis] <= 0.0
        leaf = self.node_count > 0
        axis[leaf] = 0
        left_is_lower[leaf] = True
        return axis, left_is_lower

    def triangle_operands(self) -> np.ndarray:
        """Per-triangle Moller-Trumbore operands ``(v0, e1, e2)`` as ``(N, 9)``."""
        v0, v1, v2 = self.vertices
        return np.concatenate((v0, v1 - v0, v2 - v0), axis=1)

    # -- scalar views, built on first use ------------------------------

    @cached_property
    def nodes(self) -> list[BVHNode]:
        """The tree as :class:`BVHNode` objects (bounds copied out)."""
        lo = self.node_lo.copy()
        hi = self.node_hi.copy()
        return [
            BVHNode(AABB(lo[i], hi[i]), left, right, first, count)
            for i, (left, right, first, count) in enumerate(self._links())
        ]

    @property
    def root(self) -> BVHNode:
        return self.nodes[0]

    @cached_property
    def primitive_order(self) -> list[int]:
        return self.order.tolist()

    @cached_property
    def _flat_nodes(self) -> list[tuple]:
        """Per node: ``(lox, loy, loz, hix, hiy, hiz, left, right, first, count)``."""
        boxes = np.hstack((self.node_lo, self.node_hi)).tolist()
        return [(*box, *link) for box, link in zip(boxes, self._links())]

    @cached_property
    def _order_hints(self) -> list[tuple[int, bool]]:
        axis, left_is_lower = self.order_hints
        return list(zip(axis.tolist(), left_is_lower.tolist()))

    @cached_property
    def _flat_tris(self) -> list[tuple[float, ...]]:
        """Per triangle: ``(v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z)``."""
        return list(map(tuple, self.triangle_operands().tolist()))

    def _links(self):
        return zip(
            self.node_left.tolist(),
            self.node_right.tolist(),
            self.node_first.tolist(),
            self.node_count.tolist(),
        )

    def intersect(
        self, ray: Ray, record: TraversalRecord | None = None
    ) -> HitRecord | None:
        """Closest-hit traversal with near-child-first ordering.

        If ``record`` is given, every visited node and tested triangle is
        appended to it (in visit order).
        """
        flat_nodes = self._flat_nodes
        flat_tris = self._flat_tris
        hints = self._order_hints
        order = self.primitive_order
        ox, oy, oz = float(ray.origin[0]), float(ray.origin[1]), float(ray.origin[2])
        dx, dy, dz = (
            float(ray.direction[0]),
            float(ray.direction[1]),
            float(ray.direction[2]),
        )
        # copysign keeps the slab signs right for -0.0 components: plain
        # ``dx != 0.0`` is False for -0.0, which used to yield +inf where
        # -inf was meant.
        idx = 1.0 / dx if dx != 0.0 else math.copysign(_INF, dx)
        idy = 1.0 / dy if dy != 0.0 else math.copysign(_INF, dy)
        idz = 1.0 / dz if dz != 0.0 else math.copysign(_INF, dz)
        dir_nonneg = (dx >= 0.0, dy >= 0.0, dz >= 0.0)
        t_min = ray.t_min
        t_max = ray.t_max
        rec_nodes = record.nodes_visited if record is not None else None
        rec_tris = record.tris_tested if record is not None else None

        best_t = t_max
        best_tri = -1
        stack = [0]
        push = stack.append
        pop = stack.pop
        while stack:
            node_index = pop()
            if rec_nodes is not None:
                rec_nodes.append(node_index)
            n = flat_nodes[node_index]
            # Scalar slab test.
            tx0 = (n[0] - ox) * idx
            tx1 = (n[3] - ox) * idx
            if tx0 > tx1:
                tx0, tx1 = tx1, tx0
            ty0 = (n[1] - oy) * idy
            ty1 = (n[4] - oy) * idy
            if ty0 > ty1:
                ty0, ty1 = ty1, ty0
            tz0 = (n[2] - oz) * idz
            tz1 = (n[5] - oz) * idz
            if tz0 > tz1:
                tz0, tz1 = tz1, tz0
            enter = max(tx0, ty0, tz0, t_min)
            exit_ = min(tx1, ty1, tz1, best_t)
            if enter > exit_:
                continue
            count = n[9]
            if count > 0:  # leaf
                first = n[8]
                for slot in range(first, first + count):
                    tri_index = order[slot]
                    if rec_tris is not None:
                        rec_tris.append(tri_index)
                    t = flat_tris[tri_index]
                    hit_t = _moller_trumbore(
                        t, ox, oy, oz, dx, dy, dz, t_min, best_t
                    )
                    if hit_t is not None:
                        best_t = hit_t
                        best_tri = tri_index
            else:
                axis, left_is_lower = hints[node_index]
                if dir_nonneg[axis] == left_is_lower:
                    push(n[7])  # far: right
                    push(n[6])  # near: left
                else:
                    push(n[6])
                    push(n[7])
        if best_tri < 0:
            return None
        tri = self.triangles[best_tri]
        point = ray.at(best_t)
        normal = tri.normal
        if normal[0] * dx + normal[1] * dy + normal[2] * dz > 0.0:
            normal = -normal
        return HitRecord(
            t=best_t,
            point=point,
            normal=normal,
            material_id=tri.material_id,
            primitive_index=best_tri,
        )

    def occluded(self, ray: Ray, record: TraversalRecord | None = None) -> bool:
        """Any-hit traversal for shadow rays: stops at the first hit."""
        flat_nodes = self._flat_nodes
        flat_tris = self._flat_tris
        order = self.primitive_order
        ox, oy, oz = float(ray.origin[0]), float(ray.origin[1]), float(ray.origin[2])
        dx, dy, dz = (
            float(ray.direction[0]),
            float(ray.direction[1]),
            float(ray.direction[2]),
        )
        idx = 1.0 / dx if dx != 0.0 else math.copysign(_INF, dx)
        idy = 1.0 / dy if dy != 0.0 else math.copysign(_INF, dy)
        idz = 1.0 / dz if dz != 0.0 else math.copysign(_INF, dz)
        t_min = ray.t_min
        t_max = ray.t_max
        rec_nodes = record.nodes_visited if record is not None else None
        rec_tris = record.tris_tested if record is not None else None

        stack = [0]
        push = stack.append
        pop = stack.pop
        while stack:
            node_index = pop()
            if rec_nodes is not None:
                rec_nodes.append(node_index)
            n = flat_nodes[node_index]
            tx0 = (n[0] - ox) * idx
            tx1 = (n[3] - ox) * idx
            if tx0 > tx1:
                tx0, tx1 = tx1, tx0
            ty0 = (n[1] - oy) * idy
            ty1 = (n[4] - oy) * idy
            if ty0 > ty1:
                ty0, ty1 = ty1, ty0
            tz0 = (n[2] - oz) * idz
            tz1 = (n[5] - oz) * idz
            if tz0 > tz1:
                tz0, tz1 = tz1, tz0
            enter = max(tx0, ty0, tz0, t_min)
            exit_ = min(tx1, ty1, tz1, t_max)
            if enter > exit_:
                continue
            count = n[9]
            if count > 0:
                first = n[8]
                for slot in range(first, first + count):
                    tri_index = order[slot]
                    if rec_tris is not None:
                        rec_tris.append(tri_index)
                    t = flat_tris[tri_index]
                    if _moller_trumbore(t, ox, oy, oz, dx, dy, dz, t_min, t_max) is not None:
                        return True
            else:
                push(n[7])
                push(n[6])
        return False


def _moller_trumbore(
    tri: tuple[float, ...],
    ox: float, oy: float, oz: float,
    dx: float, dy: float, dz: float,
    t_min: float, t_max: float,
) -> float | None:
    """Scalar Moller-Trumbore: returns the hit ``t`` or ``None``.

    ``tri`` is a flattened (v0, edge1, edge2) tuple from ``BVH._flat_tris``.
    """
    v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z = tri
    # pvec = d x e2
    px = dy * e2z - dz * e2y
    py = dz * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    if -1e-12 < det < 1e-12:
        return None
    inv_det = 1.0 / det
    tvx = ox - v0x
    tvy = oy - v0y
    tvz = oz - v0z
    u = (tvx * px + tvy * py + tvz * pz) * inv_det
    if u < 0.0 or u > 1.0:
        return None
    # qvec = tvec x e1
    qx = tvy * e1z - tvz * e1y
    qy = tvz * e1x - tvx * e1z
    qz = tvx * e1y - tvy * e1x
    v = (dx * qx + dy * qy + dz * qz) * inv_det
    if v < 0.0 or u + v > 1.0:
        return None
    t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
    if t < t_min or t > t_max:
        return None
    return t


def build_bvh(
    triangles: list[Triangle],
    method: str = "sah",
    leaf_size: int = _LEAF_SIZE,
) -> BVH:
    """Build a BVH over ``triangles``.

    The build is level-synchronous: each pass over a tree level reduces,
    bins and partitions the slot ranges of every open node of that level
    at once.  The tree is defined by the scalar build (chained
    ``AABB.union``, per-primitive SAH binning, stable list partitions,
    recursion left child first); every step here performs the same IEEE
    operations, or exact ones (min/max) folded in the same order, and the
    nodes are renumbered from level order to that build's depth-first
    preorder, so the tree is identical node for node.

    Args:
        triangles: primitive list (not modified; the BVH stores a reference).
        method: ``"sah"`` (binned SAH) or ``"median"`` (longest-axis median).
        leaf_size: stop splitting at or below this many primitives.

    Raises:
        ValueError: for an empty triangle list, a triangle with a NaN or
            infinite vertex, or an unknown ``method``.
    """
    if not triangles:
        raise ValueError("cannot build a BVH over zero triangles")
    if method not in ("sah", "median"):
        raise ValueError(f"unknown BVH build method: {method!r}")
    verts = np.stack(
        [
            np.array([t.v0 for t in triangles], dtype=np.float64),
            np.array([t.v1 for t in triangles], dtype=np.float64),
            np.array([t.v2 for t in triangles], dtype=np.float64),
        ]
    )
    bad = ~np.isfinite(verts).all(axis=(0, 2))
    if bad.any():
        raise ValueError(
            f"triangle {int(np.argmax(bad))} has a non-finite vertex"
        )

    # One row per slot: (centroid, primitive lo, primitive hi), computed as
    # Triangle.centroid() and Triangle.bounds() do.
    v0, v1, v2 = verts
    rows = np.concatenate(
        (
            (v0 + v1 + v2) / 3.0,
            np.minimum(np.minimum(v0, v1), v2),
            np.maximum(np.maximum(v0, v1), v2),
        ),
        axis=1,
    )
    levels, order = _build_levels(rows, method, leaf_size)
    return BVH(triangles, verts, *_preorder_nodes(levels), order)


class _Level(NamedTuple):
    """The nodes of one tree level, in slot order (level-order numbering).

    ``split`` marks the interior nodes; the ``k``-th of them owns nodes
    ``2k`` (left) and ``2k + 1`` (right) of the next level.
    """

    lo: np.ndarray
    hi: np.ndarray
    first: np.ndarray
    count: np.ndarray
    split: np.ndarray


def _build_levels(
    rows: np.ndarray, method: str, leaf_size: int
) -> tuple[list[_Level], np.ndarray]:
    """Split slot ranges level by level; returns the levels and the order.

    The working set holds the rows of the open ranges only, concatenated
    in slot order, with each row's primitive and global slot.  A leaf's
    rows leave the working set as their range closes; a split permutes
    rows within their range, so the slots stay put.
    """
    n = rows.shape[0]
    order = np.empty(n, dtype=np.int64)
    prim = np.arange(n)
    slot = np.arange(n)
    first = np.zeros(1, dtype=np.int64)
    count = np.array([n], dtype=np.int64)
    levels: list[_Level] = []
    while True:
        starts = np.cumsum(count) - count
        # Reducing over axis 0 folds each range's rows in slot order with
        # np.minimum/np.maximum, as the chained unions do, so even the
        # sign of a zero bound matches.
        low = np.minimum.reduceat(rows, starts, axis=0)
        high = np.maximum.reduceat(rows, starts, axis=0)
        extent = high[:, :3] - low[:, :3]
        # All centroids coincident: no split can separate them.
        split = (count > leaf_size) & ~(extent < 1e-12).all(axis=1)
        levels.append(
            _Level(low[:, 3:6], high[:, 6:9], first, count, split)
        )
        closing = np.repeat(~split, count)
        order[slot[closing]] = prim[closing]
        if not split.any():
            break
        opening = ~closing
        rows, prim, slot = rows[opening], prim[opening], slot[opening]
        first, count = first[split], count[split]
        perm, left_count = _partition(
            rows, count, low[split, :3], extent[split], method
        )
        rows, prim = rows[perm], prim[perm]
        first = np.stack((first, first + left_count), axis=1).ravel()
        count = np.stack((left_count, count - left_count), axis=1).ravel()
    return levels, order


def _partition(
    rows: np.ndarray,
    count: np.ndarray,
    c_lo: np.ndarray,
    c_extent: np.ndarray,
    method: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition every range of one level, stably, in one pass.

    ``rows`` are the ranges' rows back to back, ``count`` their sizes and
    ``c_lo``/``c_extent`` their centroid bounds.  Returns the permutation
    of ``rows`` that puts each range's left side first, and each range's
    left size.  SAH ranges split at the first cheapest plane; median
    ranges, and SAH ranges without a finite-cost plane, sort by centroid
    on the split axis and split at the middle.
    """
    ranges = count.shape[0]
    axis = np.argmax(c_extent, axis=1)
    range_of = np.repeat(np.arange(ranges), count)
    keys = rows[np.arange(rows.shape[0]), axis[range_of]]
    half = count // 2
    if method == "median":
        return np.lexsort((keys, range_of)), half
    picked = np.arange(ranges)
    lo = c_lo[picked, axis]
    extent = c_extent[picked, axis]
    # Same IEEE operations as ``int(8 * (c - lo) / extent)``; truncation
    # matches int() because c >= lo.  A centroid at the top lands in bin 7.
    bins = np.minimum(
        _SAH_BINS - 1,
        (_SAH_BINS * (keys - lo[range_of]) / extent[range_of]).astype(np.int64),
    )
    # Per-(range, bin) boxes: a stable sort groups each bin's rows in slot
    # order, so each group's reduceat folds exactly as a sequential
    # ``np.minimum.at`` into an empty box would.
    group = range_of * _SAH_BINS + bins
    by_group = np.argsort(group, kind="stable")
    sorted_group = group[by_group]
    heads = np.flatnonzero(np.diff(sorted_group, prepend=-1))
    filled = sorted_group[heads]
    box_lo = np.full((ranges * _SAH_BINS, 3), _INF)
    box_hi = np.full((ranges * _SAH_BINS, 3), -_INF)
    box_lo[filled] = np.minimum.reduceat(rows[by_group, 3:6], heads, axis=0)
    box_hi[filled] = np.maximum.reduceat(rows[by_group, 6:9], heads, axis=0)
    box_lo = box_lo.reshape(ranges, _SAH_BINS, 3)
    box_hi = box_hi.reshape(ranges, _SAH_BINS, 3)
    # Candidate i splits bins [0, i] from [i + 1, 8).  The lowest centroid
    # is in bin 0 and the highest in bin 7, so no side is ever empty.
    bin_count = np.bincount(group, minlength=ranges * _SAH_BINS)
    left_count = np.cumsum(bin_count.reshape(ranges, _SAH_BINS), axis=1)[:, :-1]
    right_count = count[:, None] - left_count
    left_area = _surface_areas(
        np.minimum.accumulate(box_lo, axis=1)[:, :-1],
        np.maximum.accumulate(box_hi, axis=1)[:, :-1],
    )
    right_area = _surface_areas(
        np.minimum.accumulate(box_lo[:, ::-1], axis=1)[:, -2::-1],
        np.maximum.accumulate(box_hi[:, ::-1], axis=1)[:, -2::-1],
    )
    cost = left_count * left_area + right_count * right_area
    # A strict ``<`` sweep from +inf: the first minimal finite cost wins
    # (a NaN cost, from an overflowing extent, never does).
    cost[~(cost < _INF)] = _INF
    plane = np.argmin(cost, axis=1)
    median = cost[picked, plane] == _INF
    # Key 0/1 (left/right) for SAH ranges, the centroid for median ones;
    # lexsort is stable, so each side keeps its slot order.
    side = np.where(
        median[range_of], keys, (bins > plane[range_of]).astype(np.float64)
    )
    perm = np.lexsort((side, range_of))
    return perm, np.where(median, half, left_count[picked, plane])


def _preorder_nodes(levels: list[_Level]) -> tuple[np.ndarray, ...]:
    """Node arrays numbered in the recursive build's depth-first preorder.

    A node's left child follows it (``parent + 1``) and its right child
    follows the whole left subtree (``parent + 1 + size(left)``).
    """
    sizes = [np.ones(level.count.shape[0], dtype=np.int64) for level in levels]
    for depth in range(len(levels) - 2, -1, -1):
        below = sizes[depth + 1]
        sizes[depth][levels[depth].split] += below[0::2] + below[1::2]
    total = int(sizes[0][0])
    lo = np.empty((total, 3))
    hi = np.empty((total, 3))
    left = np.full(total, -1, dtype=np.int64)
    right = np.full(total, -1, dtype=np.int64)
    first = np.zeros(total, dtype=np.int64)
    count = np.zeros(total, dtype=np.int64)
    node_depth = np.empty(total, dtype=np.int64)
    index = np.zeros(1, dtype=np.int64)
    for depth, level in enumerate(levels):
        lo[index] = level.lo
        hi[index] = level.hi
        node_depth[index] = depth
        leaf = index[~level.split]
        first[leaf] = level.first[~level.split]
        count[leaf] = level.count[~level.split]
        if depth + 1 == len(levels):
            break
        parent = index[level.split]
        left[parent] = parent + 1
        right[parent] = parent + 1 + sizes[depth + 1][0::2]
        index = np.stack((left[parent], right[parent]), axis=1).ravel()
    return lo, hi, left, right, first, count, node_depth


def _surface_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise :meth:`AABB.surface_area` of non-empty boxes (same operations)."""
    d = hi - lo
    return 2.0 * (
        d[..., 0] * d[..., 1] + d[..., 1] * d[..., 2] + d[..., 2] * d[..., 0]
    )
