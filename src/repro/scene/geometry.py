"""Geometric primitives: rays, axis-aligned bounding boxes and triangles.

These are the only primitive types the BVH and tracer operate on.  Spheres
and other analytic shapes in the scene library are tessellated into triangle
meshes (see :mod:`repro.scene.meshes`), mirroring how real ray-tracing
pipelines feed a BVH builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .vecmath import EPSILON, cross, dot, normalize

__all__ = ["Ray", "AABB", "Triangle", "HitRecord", "triangle_batch"]

_INF = float("inf")


@dataclass
class Ray:
    """A half-line ``origin + t * direction`` for ``t in [t_min, t_max]``.

    ``direction`` should be unit length so ``t`` values are distances; the
    intersection routines do not renormalize.
    """

    origin: np.ndarray
    direction: np.ndarray
    t_min: float = 1e-6
    t_max: float = _INF

    def at(self, t: float) -> np.ndarray:
        """Point on the ray at parameter ``t``."""
        return self.origin + self.direction * t

    def inv_direction(self) -> np.ndarray:
        """Component-wise reciprocal of the direction, for slab AABB tests.

        Zero components map to +/-inf which the slab test handles correctly
        via IEEE semantics.
        """
        with np.errstate(divide="ignore"):
            return np.divide(1.0, self.direction)


@dataclass
class AABB:
    """Axis-aligned bounding box given by two corner points."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def empty() -> "AABB":
        """A degenerate box that unions as the identity element."""
        return AABB(
            lo=np.full(3, _INF, dtype=np.float64),
            hi=np.full(3, -_INF, dtype=np.float64),
        )

    def union(self, other: "AABB") -> "AABB":
        """Smallest box enclosing both ``self`` and ``other``."""
        return AABB(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def union_point(self, point: np.ndarray) -> "AABB":
        """Smallest box enclosing ``self`` and ``point``."""
        return AABB(np.minimum(self.lo, point), np.maximum(self.hi, point))

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        """Whether ``point`` lies inside the box (within tolerance)."""
        return bool(
            np.all(point >= self.lo - tol) and np.all(point <= self.hi + tol)
        )

    def contains_box(self, other: "AABB", tol: float = 1e-9) -> bool:
        """Whether ``other`` is fully enclosed by this box (within tolerance)."""
        return bool(
            np.all(other.lo >= self.lo - tol) and np.all(other.hi <= self.hi + tol)
        )

    def centroid(self) -> np.ndarray:
        """Box center point."""
        return 0.5 * (self.lo + self.hi)

    def surface_area(self) -> float:
        """Total surface area; the SAH build cost metric."""
        d = self.hi - self.lo
        if d[0] < 0 or d[1] < 0 or d[2] < 0:  # empty box
            return 0.0
        return float(2.0 * (d[0] * d[1] + d[1] * d[2] + d[2] * d[0]))

    def longest_axis(self) -> int:
        """Index (0/1/2) of the axis with the largest extent."""
        d = self.hi - self.lo
        return int(np.argmax(d))

    def is_empty(self) -> bool:
        """True for boxes that enclose no volume (e.g. ``AABB.empty()``)."""
        return bool(np.any(self.hi < self.lo))

    def intersect(self, ray: Ray, inv_dir: np.ndarray, t_max: float) -> bool:
        """Slab test: does ``ray`` hit the box before ``t_max``?"""
        t0 = (self.lo - ray.origin) * inv_dir
        t1 = (self.hi - ray.origin) * inv_dir
        t_near = np.minimum(t0, t1)
        t_far = np.maximum(t0, t1)
        enter = max(float(np.max(t_near)), ray.t_min)
        exit_ = min(float(np.min(t_far)), t_max)
        return enter <= exit_


@dataclass
class HitRecord:
    """Result of a successful ray/primitive intersection."""

    t: float
    point: np.ndarray
    normal: np.ndarray
    material_id: int
    primitive_index: int


@dataclass
class Triangle:
    """A triangle primitive with a precomputed geometric normal.

    ``material_id`` indexes into the owning scene's material table.  The
    normal is the (unit) geometric normal; scenes here use flat shading so no
    per-vertex normals are stored.
    """

    v0: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    material_id: int = 0
    normal: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.normal is None:
            n = cross(self.v1 - self.v0, self.v2 - self.v0)
            norm = math.sqrt(float(n @ n))
            if norm < EPSILON:
                # Degenerate (zero-area) triangle: give it an arbitrary
                # normal; it can never be hit by the Moller-Trumbore test.
                self.normal = np.array([0.0, 0.0, 1.0])
            else:
                self.normal = n / norm

    def bounds(self) -> AABB:
        """Tight AABB of the three vertices."""
        lo = np.minimum(np.minimum(self.v0, self.v1), self.v2)
        hi = np.maximum(np.maximum(self.v0, self.v1), self.v2)
        return AABB(lo, hi)

    def centroid(self) -> np.ndarray:
        """Average of the vertices; used as the BVH partition key."""
        return (self.v0 + self.v1 + self.v2) / 3.0

    def area(self) -> float:
        """Surface area of the triangle."""
        n = cross(self.v1 - self.v0, self.v2 - self.v0)
        return 0.5 * math.sqrt(float(n @ n))

    def intersect(self, ray: Ray, t_max: float, index: int) -> HitRecord | None:
        """Moller-Trumbore ray/triangle test.

        Returns a :class:`HitRecord` (with the normal flipped to face the
        ray) or ``None`` on a miss / out-of-range hit.
        """
        edge1 = self.v1 - self.v0
        edge2 = self.v2 - self.v0
        pvec = cross(ray.direction, edge2)
        det = dot(edge1, pvec)
        if abs(det) < EPSILON:
            return None
        inv_det = 1.0 / det
        tvec = ray.origin - self.v0
        u = dot(tvec, pvec) * inv_det
        if u < 0.0 or u > 1.0:
            return None
        qvec = cross(tvec, edge1)
        v = dot(ray.direction, qvec) * inv_det
        if v < 0.0 or u + v > 1.0:
            return None
        t = dot(edge2, qvec) * inv_det
        if t < ray.t_min or t > t_max:
            return None
        normal = self.normal
        if dot(normal, ray.direction) > 0.0:
            normal = -normal
        return HitRecord(
            t=t,
            point=ray.at(t),
            normal=normal,
            material_id=self.material_id,
            primitive_index=index,
        )


def triangle_batch(
    v0: np.ndarray, v1: np.ndarray, v2: np.ndarray, material_id: int = 0
) -> list[Triangle]:
    """``[Triangle(v0[i], v1[i], v2[i], material_id) ...]`` with batched normals.

    ``v0``/``v1``/``v2`` are ``(n, 3)`` corner arrays.  The edges and
    cross products run as column arithmetic, the same IEEE operations
    :meth:`Triangle.__post_init__` performs per triangle.  The length
    stays a per-row ``n @ n``: a vectorized sum of squares rounds
    differently from that BLAS dot product on some rows, and the normals
    must match bit for bit.
    """
    a = v1 - v0
    b = v2 - v0
    n = np.empty(a.shape)
    n[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    n[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    n[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    norm = np.array([math.sqrt(float(row @ row)) for row in n])
    degenerate = norm < EPSILON
    normals = n / np.where(degenerate, 1.0, norm)[:, None]
    normals[degenerate] = (0.0, 0.0, 1.0)
    return [
        Triangle(p0, p1, p2, material_id, normal)
        for p0, p1, p2, normal in zip(v0, v1, v2, normals)
    ]
