"""Packet (wavefront) BVH traversal: batched kernels over SoA node arrays.

:class:`PackedBVH` re-expresses a built :class:`~repro.scene.bvh.BVH` as
contiguous NumPy structure-of-arrays — node bounds, child/leaf indices and
pre-gathered Möller–Trumbore triangle operands — and traverses *batches* of
rays at once.  Each traversal step pops one node per active ray from a
vectorized per-ray stack, runs the AABB slab test across the whole batch
with masked NumPy ops, expands leaf hits into (ray, triangle) pairs and
intersects them with a batched Möller–Trumbore kernel.

Correctness contract
--------------------

The timing simulator replays per-ray node/triangle visit sequences, so the
packet kernels are built to be **byte-identical** to scalar traversal
(:meth:`BVH.intersect` / :meth:`BVH.occluded`):

* every ray keeps its *own* traversal stack, popped in exactly the scalar
  order (near-child-first for closest-hit, left-first for any-hit), so the
  per-ray visit sequence is the scalar sequence — only the *interleaving
  across rays* changes, which nothing observes;
* all arithmetic maps 1:1 onto the scalar expressions (same operand order,
  same IEEE double ops), so hit distances, points and normals carry the
  same bits;
* within a leaf, the sequential "accept if ``t <= best_t``" rule resolves
  to *min t, ties to the last slot*, which the batched reduction replicates
  exactly;
* rays with a zero direction component (where the scalar slab test leans
  on ±inf corner cases that the packet slab test does not share) are
  routed through scalar traversal unchanged.

Column-wise kernels
-------------------

Ray state lives in a :class:`_Packet` of contiguous per-axis columns,
and node bounds and triangle operands in row-per-component tables that
one ``np.take`` gathers per step.  The slab test is a chain of pairwise
``np.minimum``/``np.maximum`` over the x, y and z columns: a NumPy
reduction over a length-3 axis costs more than the rest of the test.
The chain decides ``enter <= exit_`` exactly as ``max(axis=1)`` /
``min(axis=1)`` did: both propagate NaN, and they can differ only in
the sign of a zero result, which the comparison cannot see.

Once fewer than half of a packet's rows are still traversing, the live
rows are *compacted* into fresh, smaller arrays (origins, directions,
inverse directions, t-range, flat stacks and a row-to-ray map), so late
steps stop indexing finished rays.  Records carry batch ray ids, never
row numbers, so compaction cannot reorder them.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

import numpy as np

from .bvh import BVH, TraversalRecord
from .geometry import Ray

__all__ = ["PackedBVH", "BatchIntersection", "BatchOcclusion", "RayRecords"]

_INF = float("inf")

#: Epsilon window of the scalar Möller–Trumbore determinant test.
_DET_EPS = 1e-12


class RayRecords(Sequence):
    """A batch's per-ray index records: one flat buffer plus offsets.

    Ray ``i``'s record is ``flat[offsets[i]:offsets[i + 1]]`` (``flat`` a
    uint32 array, ``offsets`` int64 with one more entry than rays), in
    scalar visit order.  Indexing copies one ray's record out as the
    ``array('I')`` a :class:`~repro.scene.bvh.TraversalRecord` holds; the
    tracer reads ``flat`` and ``offsets`` whole.
    """

    __slots__ = ("flat", "offsets")

    def __init__(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        self.flat = flat
        self.offsets = offsets

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __getitem__(self, index: int) -> array:
        index = range(len(self))[index]
        start, stop = self.offsets[index], self.offsets[index + 1]
        return array("I", self.flat[start:stop].tobytes())

    def counts(self) -> np.ndarray:
        """Entries per ray."""
        return np.diff(self.offsets)


class BatchIntersection:
    """Closest-hit results for a batch of rays (SoA).

    ``t``/``tri`` are per-ray arrays (``tri == -1`` means miss);
    ``nodes``/``tris`` are the :class:`RayRecords` of visited node /
    tested triangle indices, or ``None`` when records were not requested.
    """

    __slots__ = ("t", "tri", "nodes", "tris")

    def __init__(self, t, tri, nodes, tris) -> None:
        self.t = t
        self.tri = tri
        self.nodes = nodes
        self.tris = tris


class BatchOcclusion:
    """Any-hit results for a batch of shadow rays (SoA).

    ``occluded`` is a per-ray bool array; ``nodes``/``tris`` are
    :class:`RayRecords` as in :class:`BatchIntersection` (a triangle
    record stops at the first hit), or ``None`` when records were not
    requested.
    """

    __slots__ = ("occluded", "nodes", "tris")

    def __init__(self, occluded, nodes, tris) -> None:
        self.occluded = occluded
        self.nodes = nodes
        self.tris = tris


def _gather_rays(rays: list[Ray]):
    """Split a ray list into SoA arrays (origins, dirs, t_min, t_max)."""
    origins = np.array([r.origin for r in rays], dtype=np.float64)
    dirs = np.array([r.direction for r in rays], dtype=np.float64)
    t_min = np.array([r.t_min for r in rays], dtype=np.float64)
    t_max = np.array([r.t_max for r in rays], dtype=np.float64)
    return origins, dirs, t_min, t_max


def _assemble_records(steps: list, ray_count: int) -> RayRecords:
    """Turn per-step (ray_ids, values) arrays into per-ray records.

    Steps were appended in traversal order and each ray contributes its
    values in-order within a step, so a stable sort by ray id yields every
    ray's scalar-identical visit sequence.  Each step's ids ascend, so
    the ids are a concatenation of sorted runs, which NumPy's stable
    (timsort) sort merges faster than a ``uint16`` radix sort would order
    them.  The traversal loops log ids and values as they compute them;
    they are narrowed once here, as they are concatenated, to int32 ids
    and the record's uint32 values.  ``steps`` is emptied once
    concatenated and the ids are freed before the gather, so the only
    int64 arrays the size of the record are the sort's order and, just
    before it, ``bincount``'s copy of the ids.  The sorted values stay
    one uint32 buffer; the per-ray counts become its offsets.  No per-ray
    object is built.
    """
    offsets = np.zeros(ray_count + 1, dtype=np.int64)
    if not steps:
        return RayRecords(np.empty(0, dtype=np.uint32), offsets)
    ray_ids = np.concatenate(
        [s[0] for s in steps], dtype=np.int32, casting="unsafe"
    )
    values = np.concatenate(
        [s[1] for s in steps], dtype=np.uint32, casting="unsafe"
    )
    steps.clear()
    np.cumsum(np.bincount(ray_ids, minlength=ray_count), out=offsets[1:])
    order = np.argsort(ray_ids, kind="stable")
    del ray_ids
    return RayRecords(np.take(values, order), offsets)


def _scalar_steps(ray: int, record: TraversalRecord) -> tuple:
    """A scalar walk's node and triangle records as one step each."""
    return tuple(
        (np.full(len(values), ray), np.frombuffer(values, np.uint32))
        for values in (record.nodes_visited, record.tris_tested)
    )


def _batch_steps(steps, rows: np.ndarray | None) -> list:
    """Packet steps with their ray ids mapped to batch rows ``rows``."""
    if rows is None:
        return steps
    return [(rows[ids], values) for ids, values in steps]


def _segment_local_index(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for group sizes ``counts``."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def _columns(a: np.ndarray) -> list[np.ndarray]:
    """The x, y and z columns of an ``(n, 3)`` array, each contiguous."""
    return [np.ascontiguousarray(a[:, k]) for k in range(3)]


class _Packet:
    """Per-row state of one packet traversal, one contiguous column each.

    Row ``r`` carries batch ray ``rid[r]``: origin, direction and inverse
    direction per axis, its ``[lo, hi]`` t-range, its sign octant (bit
    ``k`` set when direction ``k`` is non-negative) and its traversal
    stack, ``depth`` slots starting at ``stack[r * depth]`` of which the
    first ``sp[r]`` are live.  :meth:`compact` gathers the live rows into
    smaller arrays once most rows are done, so late traversal steps stop
    indexing finished rays.
    """

    __slots__ = (
        "rows", "depth", "rid", "ox", "oy", "oz", "dx", "dy", "dz",
        "ix", "iy", "iz", "octant", "lo", "hi", "stack", "sp",
    )

    #: Row columns gathered together by :meth:`compact`.
    _ROW_COLUMNS = (
        "rid", "ox", "oy", "oz", "dx", "dy", "dz",
        "ix", "iy", "iz", "octant", "lo", "hi", "sp",
    )

    def __init__(self, origins, dirs, t_lo, t_hi, depth: int) -> None:
        n = origins.shape[0]
        self.rows = n
        self.depth = depth
        self.rid = np.arange(n)
        self.ox, self.oy, self.oz = _columns(origins)
        self.dx, self.dy, self.dz = _columns(dirs)
        self.ix = 1.0 / self.dx
        self.iy = 1.0 / self.dy
        self.iz = 1.0 / self.dz
        self.octant = (
            (self.dx >= 0.0) * 1 + (self.dy >= 0.0) * 2 + (self.dz >= 0.0) * 4
        )
        self.lo = t_lo
        self.hi = t_hi
        # Every stack starts holding the root, node 0.
        self.stack = np.zeros(n * depth, dtype=np.intp)
        self.sp = np.ones(n, dtype=np.intp)

    def compact(self, alive: np.ndarray) -> None:
        """Keep only rows ``alive`` (ascending), renumbered from 0."""
        for name in self._ROW_COLUMNS:
            setattr(self, name, getattr(self, name)[alive])
        self.stack = self.stack.reshape(self.rows, self.depth)[alive].ravel()
        self.rows = alive.shape[0]

    def pairs(self, rows: np.ndarray):
        """Ray operands of rows ``rows`` for :meth:`PackedBVH._moller_trumbore_pairs`."""
        return (
            self.ox[rows], self.oy[rows], self.oz[rows],
            self.dx[rows], self.dy[rows], self.dz[rows],
            self.lo[rows], self.hi[rows],
        )


class PackedBVH:
    """A :class:`BVH` laid out for packet kernels, with those kernels.

    The arrays come straight from the BVH's own node and vertex arrays
    (the values the scalar tuples are built from), so packet and scalar
    traversal compute from the exact same float values.
    """

    def __init__(self, bvh: BVH) -> None:
        self.bvh = bvh
        self.node_lo = bvh.node_lo
        self.node_hi = bvh.node_hi
        # Rows lo x/y/z, hi x/y/z: one ``np.take`` gathers a step's bounds.
        self._node_cols = np.ascontiguousarray(
            np.concatenate((bvh.node_lo, bvh.node_hi), axis=1).T
        )
        self.node_left = bvh.node_left.astype(np.intp)
        self.node_right = bvh.node_right.astype(np.intp)
        self.node_first = bvh.node_first
        self.node_count = bvh.node_count
        # Closest-hit child order per (node, ray octant), flattened as
        # ``node * 8 + octant``: the left child is near when the ray's
        # sign on the node's hint axis matches the left child's side.
        axis, left_lower = bvh.order_hints
        nonneg = (np.arange(8)[None, :] >> axis[:, None]) & 1 == 1
        left_first = nonneg == left_lower[:, None]
        left = self.node_left[:, None]
        right = self.node_right[:, None]
        self._near_child = np.where(left_first, left, right).ravel()
        self._far_child = np.where(left_first, right, left).ravel()
        self.order = bvh.order
        # Rows v0 x/y/z, e1 x/y/z, e2 x/y/z (the scalar operand tuples).
        self._tri_cols = np.ascontiguousarray(bvh.triangle_operands().T)
        self.tri_normal = np.array(
            [tri.normal for tri in bvh.triangles], dtype=np.float64
        )
        self.tri_material = np.array(
            [tri.material_id for tri in bvh.triangles], dtype=np.int64
        )
        # Stack bound: near-first traversal holds at most one deferred far
        # child per tree level.
        self._stack_depth = bvh.depth() + 2

    # ------------------------------------------------------------------
    # batched Möller–Trumbore over (ray, triangle) pairs
    # ------------------------------------------------------------------

    def _moller_trumbore_pairs(self, tri_idx, ox, oy, oz, dx, dy, dz, t_lo, t_hi):
        """Vectorized scalar-equivalent MT test for (ray, triangle) pairs.

        Ray operands come as per-pair columns.  Returns ``(t, valid)``:
        the hit parameter per pair and whether the pair passes every
        scalar acceptance test against ``[t_lo, t_hi]``.  Arithmetic
        mirrors :func:`~repro.scene.bvh._moller_trumbore`
        operand-for-operand so accepted ``t`` values are bit-identical.
        """
        v0x, v0y, v0z, e1x, e1y, e1z, e2x, e2y, e2z = np.take(
            self._tri_cols, tri_idx, axis=1
        )
        px = dy * e2z - dz * e2y
        py = dz * e2x - dx * e2z
        pz = dx * e2y - dy * e2x
        det = e1x * px + e1y * py + e1z * pz
        valid = ~((det > -_DET_EPS) & (det < _DET_EPS))
        inv_det = 1.0 / np.where(valid, det, 1.0)
        tvx = ox - v0x
        tvy = oy - v0y
        tvz = oz - v0z
        u = (tvx * px + tvy * py + tvz * pz) * inv_det
        valid &= (u >= 0.0) & (u <= 1.0)
        qx = tvy * e1z - tvz * e1y
        qy = tvz * e1x - tvx * e1z
        qz = tvx * e1y - tvy * e1x
        v = (dx * qx + dy * qy + dz * qz) * inv_det
        valid &= (v >= 0.0) & (u + v <= 1.0)
        t = (e2x * qx + e2y * qy + e2z * qz) * inv_det
        valid &= (t >= t_lo) & (t <= t_hi)
        return t, valid

    # ------------------------------------------------------------------
    # one traversal step: pop and slab-test
    # ------------------------------------------------------------------

    def _pop_slab(self, p: _Packet, alive: np.ndarray):
        """Pop one node per live row of ``p`` and slab-test it.

        Returns ``(node, passed)`` aligned with ``alive``.  The per-axis
        ``np.minimum``/``np.maximum`` chain replaces a length-3 axis
        reduction and decides ``passed`` identically: both propagate NaN,
        and the two can differ only in the sign of a zero result, which
        ``enter <= exit_`` cannot see.
        """
        sp = p.sp[alive] - 1
        p.sp[alive] = sp
        node = p.stack[alive * p.depth + sp]
        ox, oy, oz = p.ox[alive], p.oy[alive], p.oz[alive]
        ix, iy, iz = p.ix[alive], p.iy[alive], p.iz[alive]
        lox, loy, loz, hix, hiy, hiz = np.take(self._node_cols, node, axis=1)
        t0 = (lox - ox) * ix
        t1 = (hix - ox) * ix
        enter = np.minimum(t0, t1)
        exit_ = np.maximum(t0, t1)
        t0 = (loy - oy) * iy
        t1 = (hiy - oy) * iy
        np.maximum(enter, np.minimum(t0, t1), out=enter)
        np.minimum(exit_, np.maximum(t0, t1), out=exit_)
        t0 = (loz - oz) * iz
        t1 = (hiz - oz) * iz
        np.maximum(enter, np.minimum(t0, t1), out=enter)
        np.minimum(exit_, np.maximum(t0, t1), out=exit_)
        np.maximum(enter, p.lo[alive], out=enter)
        np.minimum(exit_, p.hi[alive], out=exit_)
        return node, enter <= exit_

    def _leaf_pairs(self, rows: np.ndarray, leaf_nodes: np.ndarray):
        """Expand leaves into (row, triangle) pairs in scalar slot order."""
        c = self.node_count[leaf_nodes]
        slots = np.repeat(self.node_first[leaf_nodes], c)
        slots += _segment_local_index(c)
        return c, np.repeat(rows, c), self.order[slots]

    # ------------------------------------------------------------------
    # closest hit
    # ------------------------------------------------------------------

    def intersect_batch(
        self, rays: list[Ray], want_records: bool = True
    ) -> BatchIntersection:
        """Closest-hit traversal of a list of :class:`Ray` objects."""
        origins, dirs, t_min, t_max = _gather_rays(rays)
        return self.intersect_arrays(
            origins, dirs, t_min, t_max, want_records=want_records
        )

    def intersect_arrays(
        self, origins, dirs, t_min, t_max, want_records: bool = True
    ) -> BatchIntersection:
        """Closest-hit traversal of a ray batch given as SoA arrays.

        Per-ray results (and, when ``want_records``, per-ray visit
        records) are byte-identical to calling :meth:`BVH.intersect` on
        each ray in turn.
        """
        n = origins.shape[0]
        # Zero direction components hit scalar traversal's ±inf slab
        # corner cases; delegate those rays to it verbatim.
        scalar_mask = np.any(dirs == 0.0, axis=1)
        if not scalar_mask.any():
            best_t, best_tri, node_steps, tri_steps = self._traverse_closest(
                origins, dirs, t_min, t_max.copy(), want_records
            )
            if not want_records:
                return BatchIntersection(best_t, best_tri, None, None)
            return BatchIntersection(
                best_t, best_tri,
                _assemble_records(node_steps, n),
                _assemble_records(tri_steps, n),
            )

        best_t = t_max.copy()
        best_tri = np.full(n, -1, dtype=np.int64)
        node_steps: list = []
        tri_steps: list = []
        for i in np.nonzero(scalar_mask)[0]:
            ray = Ray(
                origin=origins[i], direction=dirs[i],
                t_min=float(t_min[i]), t_max=float(t_max[i]),
            )
            record = TraversalRecord() if want_records else None
            hit = self.bvh.intersect(ray, record)
            if hit is not None:
                best_t[i] = hit.t
                best_tri[i] = hit.primitive_index
            if record is not None:
                nodes, tris = _scalar_steps(i, record)
                node_steps.append(nodes)
                tri_steps.append(tris)

        packet = np.nonzero(~scalar_mask)[0]
        if packet.size:
            t_p, tri_p, packet_nodes, packet_tris = self._traverse_closest(
                origins[packet], dirs[packet], t_min[packet],
                t_max[packet].copy(), want_records,
            )
            best_t[packet] = t_p
            best_tri[packet] = tri_p
            node_steps += _batch_steps(packet_nodes, packet)
            tri_steps += _batch_steps(packet_tris, packet)
        if not want_records:
            return BatchIntersection(best_t, best_tri, None, None)
        return BatchIntersection(
            best_t, best_tri,
            _assemble_records(node_steps, n),
            _assemble_records(tri_steps, n),
        )

    def _traverse_closest(self, origins, dirs, t_min, best_t, want_records):
        """Packet core: per-ray stacks stepped in lock-step (no zero dirs).

        ``best_t`` starts as the per-ray ``t_max`` budget, is tightened
        as hits land, and is returned holding each ray's closest ``t``.
        """
        n = origins.shape[0]
        best_tri = np.full(n, -1, dtype=np.int64)
        p = _Packet(origins, dirs, t_min, best_t, self._stack_depth)
        node_steps: list = []
        tri_steps: list = []

        while True:
            alive = np.nonzero(p.sp > 0)[0]
            if alive.size == 0:
                break
            if 2 * alive.size < p.rows:
                best_t[p.rid] = p.hi
                p.compact(alive)
                alive = np.arange(p.rows)
            node, passed = self._pop_slab(p, alive)
            if want_records:
                node_steps.append((p.rid[alive], node))
            count = self.node_count[node]

            interior = np.nonzero(passed & (count == 0))[0]
            if interior.size:
                rows = alive[interior]
                key = node[interior] * 8 + p.octant[rows]
                s = p.sp[rows]
                at = rows * p.depth + s
                p.stack[at] = self._far_child[key]
                p.stack[at + 1] = self._near_child[key]
                p.sp[rows] = s + 2

            leaves = np.nonzero(passed & (count > 0))[0]
            if leaves.size:
                c, pair, tri_idx = self._leaf_pairs(alive[leaves], node[leaves])
                if want_records:
                    tri_steps.append((p.rid[pair], tri_idx))
                t, valid = self._moller_trumbore_pairs(tri_idx, *p.pairs(pair))
                tval = np.where(valid, t, _INF)
                starts = np.cumsum(c) - c
                gmin = np.minimum.reduceat(tval, starts)
                has_hit = np.nonzero(gmin < _INF)[0]
                if has_hit.size:
                    # Scalar tie rule: equal-t hits overwrite, so the last
                    # slot achieving the group minimum wins.
                    pair_pos = np.arange(tval.shape[0], dtype=np.int64)
                    cand = np.where(
                        tval == np.repeat(gmin, c), pair_pos, -1
                    )
                    glast = np.maximum.reduceat(cand, starts)
                    winners = alive[leaves[has_hit]]
                    p.hi[winners] = gmin[has_hit]
                    best_tri[p.rid[winners]] = tri_idx[glast[has_hit]]
        best_t[p.rid] = p.hi
        return best_t, best_tri, node_steps, tri_steps

    # ------------------------------------------------------------------
    # any hit
    # ------------------------------------------------------------------

    def occluded_batch(
        self, rays: list[Ray], want_records: bool = True
    ) -> BatchOcclusion:
        """Any-hit traversal of a list of :class:`Ray` shadow rays."""
        origins, dirs, t_min, t_max = _gather_rays(rays)
        return self.occluded_arrays(
            origins, dirs, t_min, t_max, want_records=want_records
        )

    def occluded_arrays(
        self, origins, dirs, t_min, t_max, want_records: bool = True
    ) -> BatchOcclusion:
        """Any-hit traversal of a shadow-ray batch given as SoA arrays.

        With ``want_records`` the per-ray visit/test records are
        byte-identical to scalar :meth:`BVH.occluded` (including stopping
        a leaf's triangle record at the first hit).
        """
        n = origins.shape[0]
        occluded = np.zeros(n, dtype=bool)
        node_steps: list = []
        tri_steps: list = []

        scalar_mask = np.any(dirs == 0.0, axis=1)
        if scalar_mask.any():
            for i in np.nonzero(scalar_mask)[0]:
                ray = Ray(
                    origin=origins[i], direction=dirs[i],
                    t_min=float(t_min[i]), t_max=float(t_max[i]),
                )
                record = TraversalRecord() if want_records else None
                occluded[i] = self.bvh.occluded(ray, record)
                if record is not None:
                    nodes, tris = _scalar_steps(i, record)
                    node_steps.append(nodes)
                    tri_steps.append(tris)
            pending = np.nonzero(~scalar_mask)[0]
        else:
            pending = np.arange(n)

        if pending.size:
            occ_p, packet_nodes, packet_tris = self._traverse_any(
                origins[pending], dirs[pending], t_min[pending],
                t_max[pending], want_records,
            )
            occluded[pending] = occ_p
            # Packet ray ids are batch rows unless rays were set aside.
            rows = None if pending.size == n else pending
            node_steps += _batch_steps(packet_nodes, rows)
            tri_steps += _batch_steps(packet_tris, rows)
        if not want_records:
            return BatchOcclusion(occluded, None, None)
        return BatchOcclusion(
            occluded, _assemble_records(node_steps, n),
            _assemble_records(tri_steps, n),
        )

    def _traverse_any(self, origins, dirs, t_min, t_max, want_records):
        """Any-hit packet core (scalar push order: right then left)."""
        n = origins.shape[0]
        occluded = np.zeros(n, dtype=bool)
        p = _Packet(origins, dirs, t_min, t_max, self._stack_depth)
        node_steps: list = []
        tri_steps: list = []

        while True:
            alive = np.nonzero(p.sp > 0)[0]
            if alive.size == 0:
                break
            if 2 * alive.size < p.rows:
                p.compact(alive)
                alive = np.arange(p.rows)
            node, passed = self._pop_slab(p, alive)
            if want_records:
                node_steps.append((p.rid[alive], node))
            count = self.node_count[node]

            interior = np.nonzero(passed & (count == 0))[0]
            if interior.size:
                rows = alive[interior]
                nd = node[interior]
                s = p.sp[rows]
                at = rows * p.depth + s
                p.stack[at] = self.node_right[nd]
                p.stack[at + 1] = self.node_left[nd]
                p.sp[rows] = s + 2

            leaves = np.nonzero(passed & (count > 0))[0]
            if leaves.size:
                c, pair, tri_idx = self._leaf_pairs(
                    alive[leaves], node[leaves]
                )
                _, valid = self._moller_trumbore_pairs(tri_idx, *p.pairs(pair))
                total = tri_idx.shape[0]
                pair_pos = np.arange(total, dtype=np.int64)
                starts = np.cumsum(c) - c
                # First hitting slot per ray; the scalar loop records
                # triangles up to (and including) it, then returns.
                first_hit = np.minimum.reduceat(
                    np.where(valid, pair_pos, total), starts
                )
                if want_records:
                    keep = pair_pos <= np.repeat(first_hit, c)
                    tri_steps.append((p.rid[pair[keep]], tri_idx[keep]))
                hits = np.nonzero(first_hit < total)[0]
                if hits.size:
                    winners = alive[leaves[hits]]
                    occluded[p.rid[winners]] = True
                    p.sp[winners] = 0  # terminate: scalar returns immediately
        return occluded, node_steps, tri_steps
