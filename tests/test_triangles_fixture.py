"""Scene triangles pinned to a committed fixture, and the batched constructor.

``tests/data/triangles_golden.json`` holds, per library scene, a SHA-256 of
its triangles' vertices, normals and material ids.  The tracer shades with
the hit triangle's normal and material, so scene geometry must stay
identical bit for bit when the mesh generators change how they build it.

``triangle_batch`` builds a mesh's triangles with batched normals; the
property tests hold it, and the generators built on it, byte-identical to
per-triangle ``Triangle(v0, v1, v2, m)``, zero-area triangles included.

Regenerating (only after an *intentional* change to scene geometry)::

    PYTHONPATH=src python tests/data/regen_triangles_golden.py
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.scene.geometry import Triangle, triangle_batch
from repro.scene.meshes import _unit_icosphere, grid_quad, icosphere, quad

DATA = Path(__file__).parent / "data"
FIXTURE = json.loads((DATA / "triangles_golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "regen_triangles_golden", DATA / "regen_triangles_golden.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_fixture_matches_run_plan():
    assert set(FIXTURE["scenes"]) == set(regen.RUNS)


@pytest.mark.parametrize("scene", regen.RUNS)
def test_scene_reproduces_fixture(scene):
    assert regen.build(scene) == FIXTURE["scenes"][scene]


def assert_same_triangles(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        for field in ("v0", "v1", "v2", "normal"):
            got, want = getattr(a, field), getattr(e, field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), field
        assert a.material_id == e.material_id


# A coarse grid makes repeated corners (zero-area triangles) common.
_coord = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def corner_arrays(draw):
    n = draw(st.integers(1, 30))
    v0, v1, v2 = (draw(arrays(np.float64, (n, 3), elements=_coord)) for _ in "abc")
    # Collapse some triangles to a point or a segment.
    for row in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        v1[row] = v0[row]
        if draw(st.booleans()):
            v2[row] = v0[row]
    return v0, v1, v2


@settings(max_examples=100, deadline=None)
@given(corner_arrays(), st.integers(0, 5))
def test_batch_matches_per_triangle(corners, material_id):
    v0, v1, v2 = corners
    expected = [
        Triangle(v0[i].copy(), v1[i].copy(), v2[i].copy(), material_id)
        for i in range(v0.shape[0])
    ]
    assert_same_triangles(triangle_batch(v0, v1, v2, material_id), expected)


def test_batch_zero_area_normal():
    p = np.array([[1.0, 2.0, 3.0]])
    (tri,) = triangle_batch(p, p.copy(), p.copy(), 2)
    assert tri.normal.tolist() == [0.0, 0.0, 1.0]


_finite = st.floats(-50.0, 50.0, allow_nan=False)
_vec = st.tuples(_finite, _finite, _finite).map(
    lambda v: np.array(v, dtype=np.float64)
)


@settings(max_examples=40, deadline=None)
@given(_vec, st.floats(0.01, 10.0), st.integers(0, 2), st.integers(0, 3))
def test_icosphere_matches_per_face(center, radius, subdivisions, material_id):
    vertices, faces = _unit_icosphere(subdivisions)
    expected = [
        Triangle(
            center + vertices[a] * radius,
            center + vertices[b] * radius,
            center + vertices[c] * radius,
            material_id,
        )
        for a, b, c in faces
    ]
    actual = icosphere(center, radius, subdivisions, material_id)
    assert_same_triangles(actual, expected)


@settings(max_examples=40, deadline=None)
@given(_vec, _vec, _vec, st.integers(1, 5), st.integers(1, 5))
def test_grid_quad_matches_quad_per_cell(origin, edge_u, edge_v, nu, nv):
    du = edge_u / nu
    dv = edge_v / nv
    expected = []
    for i in range(nu):
        for j in range(nv):
            expected.extend(quad(origin + du * i + dv * j, du, dv, 1))
    assert_same_triangles(grid_quad(origin, edge_u, edge_v, nu, nv, 1), expected)
