"""Unit tests for the packet BVH kernels.

Golden tracer-vs-reference *frame* equivalence lives in
``test_wavefront_golden.py``; this module exercises the kernels and the
path-prediction cache directly, plus scalar traversal's negative-zero
direction regression.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.scene.bvh import TraversalRecord
from repro.scene.bvh_packet import PackedBVH, PathPredictionCache
from repro.scene.geometry import Ray
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

    def test_cache_with_records_rejected(self, packed):
        cache = PathPredictionCache(packed)
        with pytest.raises(ValueError):
            packed.occluded_batch(
                [Ray(origin=vec3(0, 1, 4), direction=normalize(vec3(0.1, 0.2, -1)))],
                want_records=True,
                cache=cache,
            )


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


class TestPathPredictionCache:
    def test_learns_and_validates(self, small_scene, packed):
        cache = PathPredictionCache(packed)
        # Occluded shadow rays: from under the light toward the sphere.
        rays = []
        for dx in np.linspace(-0.05, 0.05, 16):
            rays.append(
                Ray(
                    origin=vec3(-0.8 + float(dx), -0.5, 0.0),
                    direction=vec3(0.0, 1.0, 0.0),
                    t_min=1e-4,
                )
            )
        # Perturb directions slightly off-axis to stay on the packet path.
        rays = [
            Ray(origin=r.origin, direction=normalize(vec3(1e-6, 1.0, 1e-6)),
                t_min=r.t_min)
            for r in rays
        ]
        first = packed.occluded_batch(rays, want_records=False, cache=cache)
        assert first.occluded.all()
        assert cache.hits == 0 and len(cache.table) > 0
        # Second identical batch: every ray should be answered by a
        # validated prediction, with identical results.
        second = packed.occluded_batch(rays, want_records=False, cache=cache)
        assert np.array_equal(first.occluded, second.occluded)
        # Quantization may fold several rays onto one key, so not every
        # ray is guaranteed a validated hit — but some must be.
        assert cache.hits > 0
        assert cache.hit_rate > 0.0

    def test_miss_unlearns(self, packed):
        cache = PathPredictionCache(packed)
        up = [Ray(origin=vec3(0.0, 20.0, 0.0),
                  direction=normalize(vec3(1e-6, 1.0, 1e-6)), t_min=1e-4)]
        packed.occluded_batch(up, want_records=False, cache=cache)
        # An unoccluded ray never populates (or evicts) its key.
        keys = cache.keys(
            np.array([up[0].origin]), np.array([up[0].direction])
        )
        assert int(keys[0]) not in cache.table

    def test_capacity_clears(self, packed):
        cache = PathPredictionCache(packed, max_entries=2)
        cache.table = {1: 0, 2: 0}
        cache.train(
            np.array([3], dtype=np.int64),
            np.array([True]),
            np.array([0], dtype=np.int64),
        )
        assert cache.table == {3: 0}

    def test_image_identical_with_cache(self, small_scene):
        # render_image (cache on) must match the scalar reference exactly.
        from repro.tracer.tracer import FunctionalTracer, RenderSettings
        from tests.reference_tracer import ReferenceTracer

        settings = RenderSettings(width=16, height=16)
        img_pk = FunctionalTracer(small_scene, settings).render_image()
        img_sc = ReferenceTracer(small_scene, settings).render_image()
        assert np.array_equal(img_pk, img_sc)
