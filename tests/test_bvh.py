"""BVH construction and traversal tests, including the brute-force oracle
and the scalar reference build the NumPy builder must reproduce."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scene.bvh import BVH, BVHNode, TraversalRecord, build_bvh
from repro.scene.geometry import AABB, Ray, Triangle
from repro.scene.library import SCENE_NAMES, make_scene
from repro.scene.meshes import icosphere, random_blob_field
from repro.scene.registry import build_scene_from_spec
from repro.scene.vecmath import vec3
from repro.tracer import FunctionalTracer, RenderSettings


def random_triangles(rng: np.random.Generator, count: int) -> list[Triangle]:
    tris = []
    for _ in range(count):
        base = rng.uniform(-5, 5, size=3)
        tris.append(
            Triangle(
                base,
                base + rng.uniform(-1, 1, size=3),
                base + rng.uniform(-1, 1, size=3),
            )
        )
    return tris


def brute_force_hit(triangles, ray):
    best = None
    t_max = ray.t_max
    for i, tri in enumerate(triangles):
        hit = tri.intersect(ray, t_max, i)
        if hit is not None:
            best = hit
            t_max = hit.t
    return best


def make_ray(origin, target):
    d = np.asarray(target, dtype=np.float64) - np.asarray(origin, dtype=np.float64)
    return Ray(
        origin=np.asarray(origin, dtype=np.float64),
        direction=d / np.linalg.norm(d),
    )


@pytest.fixture(scope="module", params=["sah", "median"])
def built(request, ):
    rng = np.random.default_rng(42)
    tris = random_triangles(rng, 120)
    return tris, build_bvh(tris, method=request.param)


class TestBuild:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_bvh([])

    def test_unknown_method_rejected(self):
        tris = icosphere(vec3(0, 0, 0), 1.0)
        with pytest.raises(ValueError):
            build_bvh(tris, method="bogus")

    def test_primitive_order_is_permutation(self, built):
        tris, bvh = built
        assert sorted(bvh.primitive_order) == list(range(len(tris)))

    def test_leaf_ranges_cover_all_primitives_once(self, built):
        _, bvh = built
        covered = []
        for node in bvh.nodes:
            if node.is_leaf:
                covered.extend(range(node.first, node.first + node.count))
        assert sorted(covered) == list(range(len(bvh.primitive_order)))

    def test_child_bounds_nested_in_parent(self, built):
        _, bvh = built
        for node in bvh.nodes:
            if not node.is_leaf:
                assert node.bounds.contains_box(bvh.nodes[node.left].bounds)
                assert node.bounds.contains_box(bvh.nodes[node.right].bounds)

    def test_leaves_contain_their_primitives(self, built):
        tris, bvh = built
        for node in bvh.nodes:
            if node.is_leaf:
                for slot in range(node.first, node.first + node.count):
                    tri = tris[bvh.primitive_order[slot]]
                    assert node.bounds.contains_box(tri.bounds(), tol=1e-6)

    def test_depth_reasonable(self, built):
        tris, bvh = built
        # A sane tree over n primitives is far shallower than n.
        assert bvh.depth() <= 4 * int(np.ceil(np.log2(len(tris)))) + 4

    def test_leaf_size_respected(self):
        rng = np.random.default_rng(7)
        tris = random_triangles(rng, 64)
        bvh = build_bvh(tris, leaf_size=2)
        degenerate_ok = 8  # coincident centroids may force larger leaves
        for node in bvh.nodes:
            if node.is_leaf:
                assert node.count <= max(2, degenerate_ok)

    def test_single_triangle(self):
        tris = [Triangle(vec3(0, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0))]
        bvh = build_bvh(tris)
        assert len(bvh.nodes) == 1 and bvh.root.is_leaf

    def test_coincident_centroids_terminate(self):
        # All triangles share a centroid: the builder must not recurse
        # forever and must produce one leaf holding everything.
        tris = [
            Triangle(vec3(-1, -1, i * 0.0), vec3(2, -1, 0), vec3(-1, 2, 0))
            for i in range(10)
        ]
        bvh = build_bvh(tris)
        assert bvh.root.is_leaf
        assert bvh.root.count == 10


class TestTraversal:
    def test_matches_brute_force_on_grid_of_rays(self, built):
        tris, bvh = built
        rng = np.random.default_rng(3)
        for _ in range(200):
            origin = rng.uniform(-8, 8, size=3)
            target = rng.uniform(-4, 4, size=3)
            ray = make_ray(origin, target)
            expected = brute_force_hit(tris, ray)
            actual = bvh.intersect(ray)
            if expected is None:
                assert actual is None
            else:
                assert actual is not None
                assert actual.t == pytest.approx(expected.t, rel=1e-9)
                assert actual.primitive_index == expected.primitive_index

    def test_occluded_agrees_with_intersect(self, built):
        tris, bvh = built
        rng = np.random.default_rng(5)
        for _ in range(100):
            ray = make_ray(rng.uniform(-8, 8, size=3), rng.uniform(-4, 4, size=3))
            assert bvh.occluded(ray) == (bvh.intersect(ray) is not None)

    def test_record_collects_root_first(self, built):
        _, bvh = built
        ray = make_ray([0, 0, -20], [0, 0, 0])
        record = TraversalRecord()
        bvh.intersect(ray, record)
        assert record.nodes_visited[0] == 0

    def test_recorded_triangles_include_the_hit(self, built):
        tris, bvh = built
        rng = np.random.default_rng(11)
        for _ in range(50):
            ray = make_ray(rng.uniform(-8, 8, size=3), rng.uniform(-4, 4, size=3))
            record = TraversalRecord()
            hit = bvh.intersect(ray, record)
            if hit is not None:
                assert hit.primitive_index in record.tris_tested

    def test_t_max_limits_hits(self, built):
        tris, bvh = built
        ray = make_ray([0, 0, -50], [0, 0, 0])
        hit = bvh.intersect(ray)
        if hit is not None:
            short = Ray(
                origin=ray.origin, direction=ray.direction, t_max=hit.t * 0.5
            )
            assert bvh.intersect(short) is None

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_random_rays_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        tris = random_triangles(rng, 30)
        bvh = build_bvh(tris)
        ray = make_ray(rng.uniform(-8, 8, size=3), rng.uniform(-3, 3, size=3))
        expected = brute_force_hit(tris, ray)
        actual = bvh.intersect(ray)
        assert (expected is None) == (actual is None)
        if expected is not None:
            assert actual.t == pytest.approx(expected.t, rel=1e-9)


class TestSceneMeshes:
    def test_blob_field_traversal_consistency(self):
        rng = np.random.default_rng(0)
        tris = random_blob_field(5, 4.0, (0.3, 0.8), rng)
        bvh = build_bvh(tris)
        ray = make_ray([0, 5, 10], [0, 0.5, 0])
        expected = brute_force_hit(tris, ray)
        actual = bvh.intersect(ray)
        assert (expected is None) == (actual is None)
        if expected:
            assert actual.primitive_index == expected.primitive_index


# ---------------------------------------------------------------------------
# Scalar reference build.  This is the builder the tree is defined by:
# chained AABB unions per node, per-primitive SAH binning with the strict-<
# plane sweep, and stable list partitions.  ``build_bvh`` must reproduce it
# node for node.
# ---------------------------------------------------------------------------

_SAH_BINS = 8


def reference_build(triangles, method, leaf_size):
    """``(nodes, primitive_order)`` from the scalar build."""
    centroids = np.array([t.centroid() for t in triangles])
    prim_bounds = [t.bounds() for t in triangles]
    order = list(range(len(triangles)))
    nodes = []

    def union_of(slots, boxes):
        b = AABB.empty()
        for slot in slots:
            b = b.union(boxes[order[slot]])
        return b

    def build_range(first, count):
        slots = range(first, first + count)
        node_index = len(nodes)
        nodes.append(BVHNode(bounds=union_of(slots, prim_bounds)))
        cb = AABB.empty()
        for slot in slots:
            cb = cb.union_point(centroids[order[slot]])
        if count <= leaf_size or bool(np.all(cb.hi - cb.lo < 1e-12)):
            nodes[node_index].first = first
            nodes[node_index].count = count
            return node_index
        if method == "median":
            mid = _reference_median(order, centroids, first, count, cb)
        else:
            mid = _reference_sah(order, centroids, prim_bounds, first, count, cb)
        nodes[node_index].left = build_range(first, mid - first)
        nodes[node_index].right = build_range(mid, first + count - mid)
        return node_index

    build_range(0, len(triangles))
    return nodes, order


def _reference_median(order, centroids, first, count, centroid_bounds):
    axis = centroid_bounds.longest_axis()
    segment = order[first : first + count]
    segment.sort(key=lambda i: centroids[i][axis])
    order[first : first + count] = segment
    return first + count // 2


def _reference_sah(order, centroids, prim_bounds, first, count, centroid_bounds):
    axis = centroid_bounds.longest_axis()
    lo = float(centroid_bounds.lo[axis])
    extent = float(centroid_bounds.hi[axis]) - lo
    if extent < 1e-12:
        return _reference_median(order, centroids, first, count, centroid_bounds)
    bin_counts = [0] * _SAH_BINS
    bin_bounds = [AABB.empty() for _ in range(_SAH_BINS)]
    tri_bins = {}
    for slot in range(first, first + count):
        tri = order[slot]
        b = min(
            _SAH_BINS - 1,
            int(_SAH_BINS * (float(centroids[tri][axis]) - lo) / extent),
        )
        tri_bins[tri] = b
        bin_counts[b] += 1
        bin_bounds[b] = bin_bounds[b].union(prim_bounds[tri])
    best_cost = math.inf
    best_plane = -1
    for plane in range(1, _SAH_BINS):
        left_count = sum(bin_counts[:plane])
        right_count = count - left_count
        if left_count == 0 or right_count == 0:
            continue
        left_box = AABB.empty()
        for b in range(plane):
            left_box = left_box.union(bin_bounds[b])
        right_box = AABB.empty()
        for b in range(plane, _SAH_BINS):
            right_box = right_box.union(bin_bounds[b])
        cost = (
            left_count * left_box.surface_area()
            + right_count * right_box.surface_area()
        )
        if cost < best_cost:
            best_cost = cost
            best_plane = plane
    if best_plane < 0:
        return _reference_median(order, centroids, first, count, centroid_bounds)
    segment = order[first : first + count]
    left_side = [t for t in segment if tri_bins[t] < best_plane]
    right_side = [t for t in segment if tri_bins[t] >= best_plane]
    order[first : first + count] = left_side + right_side
    return first + len(left_side)


def reference_flatten(triangles, nodes):
    """``(_flat_nodes, _order_hints, _flat_tris)`` from scalar loops."""
    flat_nodes = [
        (
            *(float(x) for x in node.bounds.lo),
            *(float(x) for x in node.bounds.hi),
            node.left, node.right, node.first, node.count,
        )
        for node in nodes
    ]
    hints = []
    for node in nodes:
        if node.is_leaf:
            hints.append((0, True))
            continue
        sep = nodes[node.left].bounds.centroid() - nodes[node.right].bounds.centroid()
        axis = int(np.argmax(np.abs(sep)))
        hints.append((axis, bool(sep[axis] <= 0.0)))
    flat_tris = [
        tuple(float(x) for x in (*t.v0, *(t.v1 - t.v0), *(t.v2 - t.v0)))
        for t in triangles
    ]
    return flat_nodes, hints, flat_tris


def reference_depths(nodes):
    """Per-node depth by walking the materialized nodes from the root."""
    depths = [0] * len(nodes)
    for index, node in enumerate(nodes):  # preorder: parents come first
        if not node.is_leaf:
            depths[node.left] = depths[node.right] = depths[index] + 1
    return depths


def recursive_depth(nodes, index=0):
    """Maximum leaf depth below ``nodes[index]``, by recursion."""
    node = nodes[index]
    if node.is_leaf:
        return 0
    return 1 + max(recursive_depth(nodes, node.left), recursive_depth(nodes, node.right))


def assert_same_tree(triangles, bvh, method, leaf_size):
    ref_nodes, ref_order = reference_build(triangles, method, leaf_size)
    assert bvh.node_depth.tolist() == reference_depths(ref_nodes)
    assert bvh.primitive_order == ref_order
    assert [(n.left, n.right, n.first, n.count) for n in bvh.nodes] == [
        (n.left, n.right, n.first, n.count) for n in ref_nodes
    ]
    # Bytes, not ==, so the sign of every zero bound is pinned too.
    for node, ref in zip(bvh.nodes, ref_nodes):
        assert node.bounds.lo.tobytes() == ref.bounds.lo.tobytes()
        assert node.bounds.hi.tobytes() == ref.bounds.hi.tobytes()
    # repr pins the sign of zeros and the Python scalar types.
    flat_nodes, hints, flat_tris = reference_flatten(triangles, ref_nodes)
    assert repr(bvh._flat_nodes) == repr(flat_nodes)
    assert repr(bvh._order_hints) == repr(hints)
    assert repr(bvh._flat_tris) == repr(flat_tris)


# A coarse grid makes duplicate vertices, coincident centroids, centroids on
# bin edges and tied SAH costs common; -0.0 exercises zero-sign ties.
_grid = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0])
_coord = st.one_of(_grid, st.floats(-10.0, 10.0, allow_nan=False))
_vertex = st.tuples(_coord, _coord, _coord)


@st.composite
def triangle_soups(draw):
    """Small triangle lists, optionally with duplicates and a flat axis.

    Some soups are copies of one triangle at integer offsets along x, which
    makes different SAH partitions tie in cost.
    """
    if draw(st.booleans()):
        shape = draw(st.tuples(_vertex, _vertex, _vertex))
        offsets = draw(st.lists(st.integers(0, 8), min_size=1, max_size=24))
        corners = [
            tuple((x + dx, y, z) for x, y, z in shape) for dx in offsets
        ]
    else:
        corners = draw(
            st.lists(st.tuples(_vertex, _vertex, _vertex), min_size=1, max_size=40)
        )
    corners += draw(st.lists(st.sampled_from(corners), max_size=12))
    flat_axis = draw(st.sampled_from([None, 0, 1, 2]))
    tris = []
    for corner in corners:
        verts = [np.array(v, dtype=np.float64) for v in corner]
        if flat_axis is not None:
            for v in verts:
                v[flat_axis] = 0.5
        tris.append(Triangle(*verts))
    return tris


class TestMatchesScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(
        triangle_soups(),
        st.sampled_from(["sah", "median"]),
        st.integers(min_value=1, max_value=6),
    )
    def test_property_identical_tree(self, tris, method, leaf_size):
        bvh = build_bvh(tris, method=method, leaf_size=leaf_size)
        assert_same_tree(tris, bvh, method, leaf_size)
        assert bvh.depth() == recursive_depth(bvh.nodes)

    @pytest.mark.parametrize("method", ["sah", "median"])
    def test_random_scene(self, method):
        tris = random_triangles(np.random.default_rng(42), 300)
        assert_same_tree(tris, build_bvh(tris, method=method), method, 4)

    def test_sah_cost_tie_keeps_first_plane(self):
        # Centroids at x = 0, 4 and 8 fill bins 0, 4 and 7 (c == hi lands
        # in bin 7).  Splits {0}|{4, 8} and {0, 4}|{8} cost exactly the
        # same; the strict-< sweep keeps the first.
        tris = [
            Triangle(vec3(x - 1, 0, 0), vec3(x + 1, 0, 0), vec3(x, 1, 0))
            for x in (8, 0, 4)
        ]
        bvh = build_bvh(tris, leaf_size=1)
        assert_same_tree(tris, bvh, "sah", 1)
        assert bvh.nodes[bvh.root.left].count == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_costs_fall_back_to_median(self):
        # A triangle spanning +-1e308 in x has an infinite box width; flat
        # in z, every box holding it has surface area inf * 0 = NaN.  A
        # NaN cost never wins the sweep, so every plane loses and the
        # node falls back to the median split.
        tris = [Triangle(vec3(-1e308, 0, 0), vec3(1e308, 0, 0), vec3(0, 1, 0))]
        tris += [
            Triangle(vec3(0, y, 0), vec3(1, y, 0), vec3(0, y + 1, 0))
            for y in (0, 2, 3, 5, 6, 8)
        ]
        assert_same_tree(tris, build_bvh(tris, leaf_size=1), "sah", 1)

    def test_signed_zero_bounds(self):
        # Both zero signs on every node's low face: the bounds keep the
        # sign the chained union fold keeps.
        tris = [
            Triangle(vec3(s * 0.0, s * 0.0, 0), vec3(x, 1, 0), vec3(x, 0, 1))
            for x in range(1, 9)
            for s in (1.0, -1.0)
        ]
        for method in ("sah", "median"):
            bvh = build_bvh(tris, method=method, leaf_size=1)
            assert_same_tree(tris, bvh, method, 1)


class TestArrayStorage:
    """The node arrays are the BVH; per-node objects are scalar-path views."""

    @pytest.mark.parametrize("scene_name", SCENE_NAMES)
    def test_array_depth_matches_recursive_depth(self, scene_name):
        bvh = build_bvh(make_scene(scene_name).triangles)
        assert bvh.depth() == recursive_depth(bvh.nodes)

    @pytest.mark.parametrize("scene_name", SCENE_NAMES)
    def test_packet_trace_builds_no_scalar_views(self, scene_name):
        # A fresh instance: the cached one may have served scalar callers.
        scene = build_scene_from_spec(scene_name)
        settings = RenderSettings(width=8, height=8, samples_per_pixel=1, seed=0)
        FunctionalTracer(scene, settings).trace_frame()
        scene.describe()
        views = {"nodes", "_flat_nodes", "_flat_tris"}
        assert not views & set(vars(scene.bvh))
        # The views still build on demand, from the same arrays.
        assert len(scene.bvh.nodes) == scene.node_count()


def _ten_triangles():
    return [
        Triangle(vec3(i, 0, 0), vec3(i + 1, 0, 0), vec3(i, 1, 0))
        for i in range(10)
    ]


# Triangle() itself warns while computing the normal of an infinite vertex.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteVertices:
    @pytest.mark.parametrize("method", ["sah", "median"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejected_naming_the_triangle(self, method, bad):
        tris = _ten_triangles()
        tris[3] = Triangle(vec3(3, 0, 0), vec3(4, bad, 0), vec3(3, 1, 0))
        tris[7] = Triangle(vec3(7, 0, bad), vec3(8, 0, 0), vec3(7, 1, 0))
        with pytest.raises(ValueError, match="triangle 3 has a non-finite vertex"):
            build_bvh(tris, method=method)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_small_list_rejected(self, bad):
        # Two triangles build a single leaf: nothing downstream would fail.
        tris = [
            Triangle(vec3(bad, 0, 0), vec3(1, 0, 0), vec3(0, 1, 0)),
            Triangle(vec3(0, 0, 1), vec3(1, 0, 1), vec3(0, 1, 1)),
        ]
        with pytest.raises(ValueError, match="triangle 0"):
            build_bvh(tris)
