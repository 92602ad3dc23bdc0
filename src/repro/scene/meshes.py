"""Procedural triangle-mesh generators.

The LumiBench scene assets used by the paper are not redistributable, so the
scene library (:mod:`repro.scene.library`) assembles synthetic stand-ins from
these generators.  Each function returns a list of :class:`Triangle` so
callers can concatenate meshes freely before handing them to a scene.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import Triangle, triangle_batch
from .vecmath import normalize, vec3

__all__ = [
    "quad",
    "grid_quad",
    "ground_plane",
    "box",
    "icosphere",
    "cylinder",
    "fractal_tree",
    "column_grid",
    "random_blob_field",
    "transform",
]


def quad(
    origin: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    material_id: int = 0,
) -> list[Triangle]:
    """Two triangles spanning the parallelogram ``origin + u*edge_u + v*edge_v``."""
    p00 = origin
    p10 = origin + edge_u
    p01 = origin + edge_v
    p11 = origin + edge_u + edge_v
    return [
        Triangle(p00, p10, p11, material_id),
        Triangle(p00, p11, p01, material_id),
    ]


def grid_quad(
    origin: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    divisions_u: int,
    divisions_v: int,
    material_id: int = 0,
) -> list[Triangle]:
    """A parallelogram tessellated into a ``divisions_u x divisions_v`` grid.

    Walls and floors in the scene library are tessellated so their BVH
    footprint (and hence cache working set) resembles real scene geometry
    rather than two giant triangles.
    """
    if divisions_u <= 0 or divisions_v <= 0:
        raise ValueError("grid divisions must be positive")
    du = edge_u / divisions_u
    dv = edge_v / divisions_v
    # Cell (i, j) in row-major order, with the corners :func:`quad` makes
    # for it, by the same operations.
    i = np.repeat(np.arange(divisions_u), divisions_v)[:, None]
    j = np.tile(np.arange(divisions_v), divisions_u)[:, None]
    p00 = origin + du * i + dv * j
    p10 = p00 + du
    p01 = p00 + dv
    p11 = p10 + dv
    # Each cell's two triangles, (p00, p10, p11) then (p00, p11, p01).
    return triangle_batch(
        np.repeat(p00, 2, axis=0),
        np.stack((p10, p11), axis=1).reshape(-1, 3),
        np.stack((p11, p01), axis=1).reshape(-1, 3),
        material_id,
    )


def ground_plane(
    size: float,
    y: float = 0.0,
    material_id: int = 0,
    divisions: int = 1,
) -> list[Triangle]:
    """A square ground plane of side ``2 * size`` centred at the origin.

    ``divisions`` tessellates the plane into a grid (see :func:`grid_quad`)
    so large floors contribute realistically to the BVH working set.
    """
    return grid_quad(
        vec3(-size, y, -size),
        vec3(2.0 * size, 0.0, 0.0),
        vec3(0.0, 0.0, 2.0 * size),
        divisions,
        divisions,
        material_id,
    )


def box(
    center: np.ndarray, half_extents: np.ndarray, material_id: int = 0
) -> list[Triangle]:
    """An axis-aligned box (12 triangles)."""
    hx, hy, hz = (float(h) for h in half_extents)
    cx, cy, cz = (float(c) for c in center)
    triangles: list[Triangle] = []
    # Each face as a quad: (origin, edge_u, edge_v) with outward winding.
    faces = [
        # +X / -X
        (vec3(cx + hx, cy - hy, cz - hz), vec3(0, 2 * hy, 0), vec3(0, 0, 2 * hz)),
        (vec3(cx - hx, cy - hy, cz - hz), vec3(0, 0, 2 * hz), vec3(0, 2 * hy, 0)),
        # +Y / -Y
        (vec3(cx - hx, cy + hy, cz - hz), vec3(2 * hx, 0, 0), vec3(0, 0, 2 * hz)),
        (vec3(cx - hx, cy - hy, cz - hz), vec3(0, 0, 2 * hz), vec3(2 * hx, 0, 0)),
        # +Z / -Z
        (vec3(cx - hx, cy - hy, cz + hz), vec3(2 * hx, 0, 0), vec3(0, 2 * hy, 0)),
        (vec3(cx - hx, cy - hy, cz - hz), vec3(0, 2 * hy, 0), vec3(2 * hx, 0, 0)),
    ]
    for origin, edge_u, edge_v in faces:
        triangles.extend(quad(origin, edge_u, edge_v, material_id))
    return triangles


def icosphere(
    center: np.ndarray,
    radius: float,
    subdivisions: int = 1,
    material_id: int = 0,
) -> list[Triangle]:
    """A geodesic sphere built by subdividing an icosahedron.

    ``subdivisions`` quadruples the face count each level: 20, 80, 320,
    1280, ...  Level 2-3 gives a mesh dense enough to behave like the
    paper's BUNNY-style "warm" workloads.
    """
    vertices, faces = _unit_icosphere(subdivisions)
    corners = center + vertices[faces] * radius
    return triangle_batch(
        corners[:, 0], corners[:, 1], corners[:, 2], material_id
    )


@lru_cache(maxsize=8)
def _unit_icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit icosphere's ``(V, 3)`` vertices and ``(F, 3)`` faces."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    vertices = [normalize(vec3(*v)) for v in raw]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        midpoint_cache: dict[tuple[int, int], int] = {}

        def midpoint(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key not in midpoint_cache:
                vertices.append(normalize(vertices[i] + vertices[j]))
                midpoint_cache[key] = len(vertices) - 1
            return midpoint_cache[key]

        new_faces: list[tuple[int, int, int]] = []
        for a, b, c in faces:
            ab = midpoint(a, b)
            bc = midpoint(b, c)
            ca = midpoint(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = new_faces
    unit = np.array(vertices), np.array(faces, dtype=np.intp)
    for array in unit:
        array.flags.writeable = False
    return unit


def cylinder(
    base: np.ndarray,
    height: float,
    radius: float,
    segments: int = 8,
    material_id: int = 0,
) -> list[Triangle]:
    """An open vertical cylinder (no caps), used for tree trunks and columns."""
    triangles: list[Triangle] = []
    for i in range(segments):
        a0 = 2.0 * math.pi * i / segments
        a1 = 2.0 * math.pi * (i + 1) / segments
        p0 = base + vec3(radius * math.cos(a0), 0.0, radius * math.sin(a0))
        p1 = base + vec3(radius * math.cos(a1), 0.0, radius * math.sin(a1))
        p2 = p0 + vec3(0.0, height, 0.0)
        p3 = p1 + vec3(0.0, height, 0.0)
        triangles.append(Triangle(p0, p1, p3, material_id))
        triangles.append(Triangle(p0, p3, p2, material_id))
    return triangles


def fractal_tree(
    base: np.ndarray,
    height: float,
    depth: int,
    rng: np.random.Generator,
    trunk_material: int = 0,
    leaf_material: int = 1,
) -> list[Triangle]:
    """A simple recursive branching tree (trunk cylinders + leaf spheres).

    Stands in for the paper's foliage-heavy scenes (PARK, CHSNT) whose rays
    traverse deep, incoherent BVH subtrees.
    """
    triangles: list[Triangle] = []

    def grow(origin: np.ndarray, direction: np.ndarray, length: float, level: int) -> None:
        tip = origin + direction * length
        radius = max(0.02, 0.08 * length)
        if level == 0:
            # The trunk grows straight up; model it as a proper cylinder.
            triangles.extend(
                cylinder(origin, length, radius, segments=5, material_id=trunk_material)
            )
        else:
            triangles.extend(_branch_quad(origin, tip, radius, trunk_material))
        if level >= depth:
            triangles.extend(
                icosphere(tip, length * 0.5, subdivisions=0, material_id=leaf_material)
            )
            return
        n_children = 2 + int(rng.integers(0, 2))
        for _ in range(n_children):
            jitter = rng.uniform(-0.6, 0.6, size=3)
            child_dir = normalize(direction + jitter)
            if child_dir[1] < 0.1:  # keep branches growing upward-ish
                child_dir = normalize(child_dir + vec3(0.0, 0.8, 0.0))
            grow(tip, child_dir, length * 0.65, level + 1)

    grow(base, vec3(0.0, 1.0, 0.0), height, 0)
    return triangles


def _branch_quad(
    start: np.ndarray, end: np.ndarray, radius: float, material_id: int
) -> list[Triangle]:
    """Two crossed quads approximating a thin branch between two points."""
    axis = end - start
    side = vec3(radius, 0.0, 0.0)
    side2 = vec3(0.0, 0.0, radius)
    out: list[Triangle] = []
    out.extend(quad(start - side, 2 * side, axis, material_id))
    out.extend(quad(start - side2, 2 * side2, axis, material_id))
    return out


def column_grid(
    rows: int,
    cols: int,
    spacing: float,
    column_height: float,
    column_radius: float,
    material_id: int = 0,
    segments: int = 6,
) -> list[Triangle]:
    """A grid of columns, the skeleton of an atrium scene (SPNZA stand-in)."""
    triangles: list[Triangle] = []
    x0 = -0.5 * (cols - 1) * spacing
    z0 = -0.5 * (rows - 1) * spacing
    for r in range(rows):
        for c in range(cols):
            base = vec3(x0 + c * spacing, 0.0, z0 + r * spacing)
            triangles.extend(
                cylinder(base, column_height, column_radius, segments=segments,
                         material_id=material_id)
            )
    return triangles


def random_blob_field(
    count: int,
    area: float,
    radius_range: tuple[float, float],
    rng: np.random.Generator,
    material_id: int = 0,
    subdivisions: int = 1,
) -> list[Triangle]:
    """Spheres scattered over the ground plane — generic clutter geometry."""
    triangles: list[Triangle] = []
    for _ in range(count):
        radius = float(rng.uniform(*radius_range))
        x = float(rng.uniform(-area, area))
        z = float(rng.uniform(-area, area))
        center = vec3(x, radius, z)
        triangles.extend(
            icosphere(center, radius, subdivisions=subdivisions, material_id=material_id)
        )
    return triangles


def transform(
    triangles: list[Triangle],
    translate: np.ndarray | None = None,
    scale: float = 1.0,
) -> list[Triangle]:
    """Uniformly scale then translate a mesh, returning new triangles."""
    offset = translate if translate is not None else vec3(0.0, 0.0, 0.0)
    return [
        Triangle(
            t.v0 * scale + offset,
            t.v1 * scale + offset,
            t.v2 * scale + offset,
            t.material_id,
        )
        for t in triangles
    ]
