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

The build runs NumPy reductions over each node's primitives (a few
thousand nodes per scene, each reducing many rows at once), and produces
exactly the tree of a scalar per-primitive build.  The traversal hot path
stays in scalar Python floats rather than numpy: per-node numpy ops on
3-vectors cost microseconds each, which would dominate the
multi-million-node-visit frame traces the experiments run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

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
    """One node of the flattened BVH.

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
    """An immutable BVH over a list of triangles.

    Build via :func:`build_bvh`.  ``primitive_order`` is the permutation of
    the caller's triangle list induced by the build; leaf ranges index into
    it.
    """

    def __init__(
        self,
        triangles: list[Triangle],
        nodes: list[BVHNode],
        primitive_order: list[int],
    ) -> None:
        self.triangles = triangles
        self.nodes = nodes
        self.primitive_order = primitive_order
        self._flatten()

    def _flatten(self) -> None:
        """Precompute scalar-tuple views of nodes/triangles for traversal."""
        nodes = self.nodes
        lo = np.array([node.bounds.lo for node in nodes], dtype=np.float64)
        hi = np.array([node.bounds.hi for node in nodes], dtype=np.float64)
        links = np.array(
            [(node.left, node.right, node.first, node.count) for node in nodes]
        )
        # Per-node: (lox, loy, loz, hix, hiy, hiz, left, right, first, count).
        self._flat_nodes = [
            (*box, node.left, node.right, node.first, node.count)
            for box, node in zip(np.hstack((lo, hi)).tolist(), nodes)
        ]
        # Per-interior-node traversal-order hint: axis of largest child
        # centroid separation and whether the left child sits on its lower
        # side.  Leaves get (0, True) placeholders.
        centers = 0.5 * (lo + hi)  # AABB.centroid()
        sep = centers[links[:, 0]] - centers[links[:, 1]]
        axis = np.argmax(np.abs(sep), axis=1)
        left_is_lower = sep[np.arange(len(nodes)), axis] <= 0.0
        leaf = links[:, 3] > 0
        axis[leaf] = 0
        left_is_lower[leaf] = True
        self._order_hints = list(zip(axis.tolist(), left_is_lower.tolist()))
        # Per-triangle Moller-Trumbore operands as scalars:
        # (v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z).
        v0, v1, v2 = _stack_vertices(self.triangles)
        self._flat_tris = list(
            map(tuple, np.concatenate((v0, v1 - v0, v2 - v0), axis=1).tolist())
        )

    @property
    def root(self) -> BVHNode:
        return self.nodes[0]

    def depth(self) -> int:
        """Maximum leaf depth (root = depth 0)."""

        def node_depth(index: int) -> int:
            node = self.nodes[index]
            if node.is_leaf:
                return 0
            return 1 + max(node_depth(node.left), node_depth(node.right))

        return node_depth(0)

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

    ``tri`` is a flattened (v0, edge1, edge2) tuple from :meth:`BVH._flatten`.
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

    Each node is built with NumPy reductions over its primitives' rows.
    The tree is defined by the scalar build (chained ``AABB.union``,
    per-primitive SAH binning, stable list partitions); every step here
    performs the same IEEE operations, or exact ones (min/max), so the tree
    is identical node for node.

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
    verts = _stack_vertices(triangles)
    bad = ~np.isfinite(verts).all(axis=(0, 2))
    if bad.any():
        raise ValueError(
            f"triangle {int(np.argmax(bad))} has a non-finite vertex"
        )

    # One row per slot: (centroid, primitive lo, primitive hi), computed as
    # Triangle.centroid() and Triangle.bounds() do.  Rows are permuted
    # together with ``order`` as each node's slot range is partitioned.
    v0, v1, v2 = verts
    rows = np.concatenate(
        (
            (v0 + v1 + v2) / 3.0,
            np.minimum(np.minimum(v0, v1), v2),
            np.maximum(np.maximum(v0, v1), v2),
        ),
        axis=1,
    ).astype(np.float64)
    order = np.arange(len(triangles))
    nodes: list[BVHNode] = []

    def build_range(first: int, count: int) -> int:
        """Recursively build the subtree over ``order[first:first+count]``."""
        end = first + count
        seg = rows[first:end]
        # Reducing over axis 0 folds the rows in slot order with
        # np.minimum/np.maximum, as the chained unions do, so even the sign
        # of a zero bound matches.
        low = seg.min(axis=0)
        high = seg.max(axis=0)
        node_index = len(nodes)
        # Copies, so a node does not keep its 9-wide reductions alive.
        node = BVHNode(bounds=AABB(low[3:6].copy(), high[6:9].copy()))
        nodes.append(node)
        extent = high[:3] - low[:3]
        # All centroids coincident: no split can separate them.
        if count <= leaf_size or bool(np.all(extent < 1e-12)):
            node.first = first
            node.count = count
            return node_index

        axis = int(np.argmax(extent))
        split = None
        if method == "sah":
            split = _sah_partition(
                seg[:, axis], low[axis], extent[axis], seg[:, 3:6], seg[:, 6:9]
            )
        if split is None:  # median build, or SAH found no finite cost
            perm = np.argsort(seg[:, axis], kind="stable")
            mid = first + count // 2
        else:
            perm, left_count = split
            mid = first + left_count
        rows[first:end] = seg[perm]
        order[first:end] = order[first:end][perm]
        node.left = build_range(first, mid - first)
        node.right = build_range(mid, end - mid)
        return node_index

    build_range(0, len(triangles))
    return BVH(triangles, nodes, order.tolist())


def _stack_vertices(triangles: list[Triangle]) -> np.ndarray:
    """The triangles' vertices as a (3, N, 3) array: ``v0``, ``v1``, ``v2``."""
    return np.array([(t.v0, t.v1, t.v2) for t in triangles]).transpose(1, 0, 2)


def _sah_partition(
    keys: np.ndarray,
    lo: float,
    extent: float,
    prim_lo: np.ndarray,
    prim_hi: np.ndarray,
) -> tuple[np.ndarray, int] | None:
    """Binned SAH over one node's rows.

    Returns the stable permutation putting the left side first and the left
    side's size, or ``None`` when no candidate plane has a finite cost.
    ``keys`` are the centroids on the split axis, ``lo``/``extent`` their
    range.
    """
    # Same IEEE operations as ``int(8 * (c - lo) / extent)``; truncation
    # matches int() because c >= lo.  A centroid at the top lands in bin 7.
    bins = np.minimum(
        _SAH_BINS - 1, (_SAH_BINS * (keys - lo) / extent).astype(np.int64)
    )
    box_lo = np.full((_SAH_BINS, 3), _INF)
    box_hi = np.full((_SAH_BINS, 3), -_INF)
    np.minimum.at(box_lo, bins, prim_lo)
    np.maximum.at(box_hi, bins, prim_hi)
    # Candidate i splits bins [0, i] from [i + 1, 8).  The lowest centroid
    # is in bin 0 and the highest in bin 7, so no side is ever empty.
    left_count = np.cumsum(np.bincount(bins, minlength=_SAH_BINS))[:-1]
    right_count = len(keys) - left_count
    left_area = _surface_areas(
        np.minimum.accumulate(box_lo)[:-1], np.maximum.accumulate(box_hi)[:-1]
    )
    right_area = _surface_areas(
        np.minimum.accumulate(box_lo[::-1])[-2::-1],
        np.maximum.accumulate(box_hi[::-1])[-2::-1],
    )
    cost = left_count * left_area + right_count * right_area
    # A strict ``<`` sweep from +inf: the first minimal finite cost wins
    # (a NaN cost, from an overflowing extent, never does).
    cost[~(cost < _INF)] = _INF
    plane = int(np.argmin(cost))
    if cost[plane] == _INF:
        return None
    left = bins <= plane
    perm = np.concatenate((np.flatnonzero(left), np.flatnonzero(~left)))
    return perm, int(np.count_nonzero(left))


def _surface_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row-wise :meth:`AABB.surface_area` of non-empty boxes (same operations)."""
    d = hi - lo
    return 2.0 * (d[:, 0] * d[:, 1] + d[:, 1] * d[:, 2] + d[:, 2] * d[:, 0])
