"""Unit tests for the packet BVH kernels.

Golden tracer-vs-reference *frame* equivalence lives in
``test_wavefront_golden.py``; this module exercises the kernels directly,
plus scalar traversal's negative-zero direction regression.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.scene import bvh_packet
from repro.scene.bvh import TraversalRecord
from repro.scene.bvh_packet import PackedBVH
from repro.scene.geometry import Ray
from repro.scene.library import make_scene
from repro.scene.vecmath import normalize, vec3


@pytest.fixture(scope="module")
def packed(small_scene) -> PackedBVH:
    return small_scene.packed_bvh


def _scatter_rays(scene, count=64, seed=7):
    """Deterministic rays aimed at (and past) the scene from many angles."""
    rng = np.random.default_rng(seed)
    lo = scene.bvh.nodes[0].bounds.lo
    hi = scene.bvh.nodes[0].bounds.hi
    center = (lo + hi) / 2.0
    rays = []
    for _ in range(count):
        origin = center + rng.uniform(-6.0, 6.0, 3)
        target = rng.uniform(lo, hi)
        direction = target - origin
        if np.any(direction == 0.0):
            direction = direction + 1e-5
        rays.append(Ray(origin=origin, direction=normalize(direction)))
    return rays


class TestPacketKernels:
    def test_intersect_matches_scalar(self, small_scene, packed):
        rays = _scatter_rays(small_scene)
        res = packed.intersect_batch(rays, want_records=True)
        for i, ray in enumerate(rays):
            record = TraversalRecord()
            hit = small_scene.bvh.intersect(ray, record)
            if hit is None:
                assert res.tri[i] == -1
            else:
                assert res.tri[i] == hit.primitive_index
                assert res.t[i] == hit.t  # bit-identical, not approx
            assert res.nodes[i] == record.nodes_visited
            assert res.tris[i] == record.tris_tested

    def test_occluded_matches_scalar(self, small_scene, packed):
        rays = _scatter_rays(small_scene, seed=11)
        res = packed.occluded_batch(rays, want_records=True)
        for i, ray in enumerate(rays):
            record = TraversalRecord()
            occluded = small_scene.bvh.occluded(ray, record)
            assert bool(res.occluded[i]) == occluded
            assert res.nodes[i] == record.nodes_visited
            assert res.tris[i] == record.tris_tested

    def test_zero_direction_component_delegates(self, small_scene, packed):
        # Axis-parallel rays (zero direction components) take the scalar
        # fallback; results must still agree with the scalar backend.
        rays = [
            Ray(origin=vec3(0.0, 10.0, 0.0), direction=vec3(0.0, -1.0, 0.0)),
            Ray(origin=vec3(0.0, 0.5, 5.0), direction=vec3(0.0, 0.0, -1.0)),
            Ray(origin=vec3(-5.0, 0.5, 0.0), direction=normalize(vec3(1.0, 0.0, 0.3))),
        ]
        res = packed.intersect_batch(rays, want_records=True)
        for i, ray in enumerate(rays):
            record = TraversalRecord()
            hit = small_scene.bvh.intersect(ray, record)
            assert (res.tri[i] == -1) == (hit is None)
            assert res.nodes[i] == record.nodes_visited

    def test_mixed_batch_preserves_order(self, small_scene, packed):
        # A batch mixing scalar-fallback and packet rays keeps per-ray
        # results aligned with their input positions.
        rays = _scatter_rays(small_scene, count=10, seed=3)
        rays.insert(4, Ray(origin=vec3(0.0, 10.0, 0.0), direction=vec3(0.0, -1.0, 0.0)))
        res = packed.intersect_batch(rays, want_records=True)
        for i, ray in enumerate(rays):
            record = TraversalRecord()
            hit = small_scene.bvh.intersect(ray, record)
            assert (res.tri[i] == -1) == (hit is None)
            assert res.nodes[i] == record.nodes_visited
            assert res.tris[i] == record.tris_tested


def _random_batch(scene, size, seed, miss_share=0.0, zero_share=0.0):
    """Seeded SoA ray batch around ``scene``, with finite and infinite t_max.

    ``miss_share`` of the rays start outside the root box and point away
    from it, so they miss the root on the first step; ``zero_share`` of
    the rays get one or two ``+0.0``/``-0.0`` direction components.
    """
    rng = np.random.default_rng(seed)
    lo = scene.bvh.nodes[0].bounds.lo
    hi = scene.bvh.nodes[0].bounds.hi
    center = (lo + hi) / 2.0
    extent = float(np.max(hi - lo))
    origins = center + rng.uniform(-1.5, 1.5, (size, 3)) * extent
    dirs = rng.uniform(lo, hi, (size, 3)) - origins
    away = rng.random(size) < miss_share
    outward = rng.normal(size=(size, 3))
    outward /= np.linalg.norm(outward, axis=1)[:, None]
    origins[away] = center + 2.0 * extent * outward[away]
    dirs[away] = outward[away]
    for i in np.nonzero(rng.random(size) < zero_share)[0]:
        for axis in rng.choice(3, size=int(rng.integers(1, 3)), replace=False):
            dirs[i, axis] = -0.0 if rng.random() < 0.5 else 0.0
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    t_min = np.where(rng.random(size) < 0.5, 1e-6, 1e-4)
    t_max = np.where(
        rng.random(size) < 0.5, math.inf, rng.uniform(0.5, 3.0, size) * extent
    )
    return origins, dirs, t_min, t_max


def _scalar_ray(origins, dirs, t_min, t_max, i):
    return Ray(
        origin=origins[i], direction=dirs[i],
        t_min=float(t_min[i]), t_max=float(t_max[i]),
    )


_EDGE_SIZES = (1, 2, 3, 257)
_EDGE_MIXES = {
    "random": {},
    "mostly_miss": {"miss_share": 0.9},
    "zero_dirs": {"zero_share": 0.3},
    "miss_and_zero": {"miss_share": 0.7, "zero_share": 0.2},
}


@pytest.fixture(scope="module", params=["small", "BUNNY"])
def edge_scene(request, small_scene):
    return small_scene if request.param == "small" else make_scene("BUNNY")


class TestPacketMatchesScalarOnEdgeBatches:
    """``*_arrays`` against scalar ``BVH.intersect``/``occluded``, ray by ray.

    Sizes 1-3 leave a packet too small to compact more than trivially,
    257 compacts repeatedly; a mostly-missing batch drops below the
    compaction threshold on its first step.
    """

    @pytest.mark.parametrize("want_records", [True, False])
    @pytest.mark.parametrize("mix", sorted(_EDGE_MIXES))
    @pytest.mark.parametrize("size", _EDGE_SIZES)
    def test_intersect(self, edge_scene, size, mix, want_records):
        batch = _random_batch(edge_scene, size, seed=size, **_EDGE_MIXES[mix])
        res = edge_scene.packed_bvh.intersect_arrays(
            *batch, want_records=want_records
        )
        if not want_records:
            assert res.nodes is None and res.tris is None
        for i in range(size):
            record = TraversalRecord()
            hit = edge_scene.bvh.intersect(_scalar_ray(*batch, i), record)
            if hit is None:
                assert res.tri[i] == -1
                assert res.t[i] == batch[3][i]
            else:
                assert res.tri[i] == hit.primitive_index
                assert res.t[i] == hit.t  # bit-identical, not approx
            if want_records:
                assert res.nodes[i].typecode == res.tris[i].typecode == "I"
                assert res.nodes[i] == record.nodes_visited
                assert res.tris[i] == record.tris_tested

    @pytest.mark.parametrize("want_records", [True, False])
    @pytest.mark.parametrize("mix", sorted(_EDGE_MIXES))
    @pytest.mark.parametrize("size", _EDGE_SIZES)
    def test_occluded(self, edge_scene, size, mix, want_records):
        batch = _random_batch(
            edge_scene, size, seed=1000 + size, **_EDGE_MIXES[mix]
        )
        res = edge_scene.packed_bvh.occluded_arrays(
            *batch, want_records=want_records
        )
        if not want_records:
            assert res.nodes is None and res.tris is None
        for i in range(size):
            record = TraversalRecord()
            occluded = edge_scene.bvh.occluded(_scalar_ray(*batch, i), record)
            assert bool(res.occluded[i]) == occluded
            if want_records:
                assert res.nodes[i] == record.nodes_visited
                assert res.tris[i] == record.tris_tested

    @pytest.mark.parametrize("kernel", ["intersect_arrays", "occluded_arrays"])
    def test_mostly_missing_batch_compacts(self, edge_scene, kernel, monkeypatch):
        calls = []
        compact = bvh_packet._Packet.compact

        def spy(packet, alive):
            calls.append((packet.rows, alive.shape[0]))
            compact(packet, alive)

        monkeypatch.setattr(bvh_packet._Packet, "compact", spy)
        batch = _random_batch(edge_scene, 257, seed=5, miss_share=0.9)
        getattr(edge_scene.packed_bvh, kernel)(*batch)
        assert calls and calls[0][0] == 257
        assert all(2 * live < rows for rows, live in calls)


class TestNegativeZeroDirection:
    """Regression: ``-0.0`` direction components must behave like ``+0.0``.

    ``1.0 / -0.0`` is ``-inf``; before the ``copysign`` guard the slab
    test's ``0 * -inf`` produced NaNs that silently disabled node culling
    or, worse, culled nodes the ray actually enters.
    """

    def test_scalar_intersect_negative_zero(self, small_scene):
        down_pos = Ray(origin=vec3(0.3, 10.0, 0.1), direction=vec3(0.0, -1.0, 0.0))
        down_neg = Ray(origin=vec3(0.3, 10.0, 0.1), direction=vec3(-0.0, -1.0, -0.0))
        rec_pos, rec_neg = TraversalRecord(), TraversalRecord()
        hit_pos = small_scene.bvh.intersect(down_pos, rec_pos)
        hit_neg = small_scene.bvh.intersect(down_neg, rec_neg)
        assert hit_pos is not None and hit_neg is not None
        assert hit_neg.t == hit_pos.t
        assert hit_neg.primitive_index == hit_pos.primitive_index
        assert rec_neg.nodes_visited == rec_pos.nodes_visited
        assert rec_neg.tris_tested == rec_pos.tris_tested

    def test_scalar_occluded_negative_zero(self, small_scene):
        pos = Ray(origin=vec3(0.3, 10.0, 0.1), direction=vec3(0.0, -1.0, 0.0),
                  t_min=1e-4, t_max=math.inf)
        neg = Ray(origin=vec3(0.3, 10.0, 0.1), direction=vec3(-0.0, -1.0, -0.0),
                  t_min=1e-4, t_max=math.inf)
        assert small_scene.bvh.occluded(pos) == small_scene.bvh.occluded(neg)
        assert small_scene.bvh.occluded(pos)  # the ground plane is below

    def test_packet_negative_zero_delegates(self, small_scene, packed):
        ray = Ray(origin=vec3(0.3, 10.0, 0.1), direction=vec3(-0.0, -1.0, -0.0))
        res = packed.intersect_batch([ray], want_records=True)
        record = TraversalRecord()
        hit = small_scene.bvh.intersect(ray, record)
        assert hit is not None and res.tri[0] == hit.primitive_index
        assert res.nodes[0] == record.nodes_visited
