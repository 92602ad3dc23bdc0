"""Scene container tying geometry, materials, lights and camera together.

A :class:`Scene` owns the BVH and assigns every BVH node and triangle a
*memory address* in a synthetic GPU address space.  Those addresses are what
make the pipeline end-to-end faithful: the tracer records which nodes a ray
touched, and the timing simulator replays the corresponding cache-line
accesses through L1/L2/DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bvh import BVH, build_bvh
from .camera import Camera
from .geometry import Triangle
from .lights import Light
from .materials import MaterialTable

__all__ = ["Scene", "AddressMap"]

# Synthetic GPU address-space layout.  Regions are disjoint and generously
# sized; exact values only matter for cache-set mapping in the GPU model.
_BVH_NODE_BASE = 0x1000_0000
_BVH_NODE_SIZE = 64  # two AABBs + child indices, like a compact BVH2 node
_TRIANGLE_BASE = 0x4000_0000
_TRIANGLE_SIZE = 48  # three fp32x3 vertices + material id
_FRAMEBUFFER_BASE = 0x8000_0000
_PIXEL_SIZE = 16  # rgba fp32
_SHADER_DATA_BASE = 0xC000_0000


@dataclass(frozen=True)
class AddressMap:
    """Maps scene entities to synthetic global-memory addresses."""

    node_base: int = _BVH_NODE_BASE
    node_size: int = _BVH_NODE_SIZE
    triangle_base: int = _TRIANGLE_BASE
    triangle_size: int = _TRIANGLE_SIZE
    framebuffer_base: int = _FRAMEBUFFER_BASE
    pixel_size: int = _PIXEL_SIZE
    shader_data_base: int = _SHADER_DATA_BASE

    def node_address(self, node_index: int) -> int:
        """Address of a BVH node."""
        return self.node_base + node_index * self.node_size

    def triangle_address(self, tri_index: int) -> int:
        """Address of a triangle record."""
        return self.triangle_base + tri_index * self.triangle_size

    def pixel_address(self, px: int, py: int, width: int) -> int:
        """Framebuffer address of pixel ``(px, py)``."""
        return self.framebuffer_base + (py * width + px) * self.pixel_size


class Scene:
    """A renderable scene.

    Args:
        triangles: the scene geometry.
        camera: viewpoint generating primary rays.
        lights: light sources for shadow rays (may be empty for pure
            path-traced scenes relying on emissive geometry).
        materials: material table; triangle ``material_id`` indexes it.
        name: identifier used in experiment reports.
        bvh_method: build strategy passed to :func:`build_bvh`.
        max_bounces: path depth the tracer uses for this scene; the scene
            library tunes this per workload (e.g. PARK traces deep paths).
    """

    def __init__(
        self,
        triangles: list[Triangle],
        camera: Camera,
        lights: list[Light] | None = None,
        materials: MaterialTable | None = None,
        name: str = "scene",
        bvh_method: str = "sah",
        max_bounces: int = 2,
    ) -> None:
        if not triangles:
            raise ValueError("a scene needs at least one triangle")
        self.name = name
        self.camera = camera
        self.lights: list[Light] = list(lights or [])
        self.materials = materials if materials is not None else MaterialTable()
        self.max_bounces = max_bounces
        self.bvh: BVH = build_bvh(triangles, method=bvh_method)
        self.addresses = AddressMap()
        self._packed_bvh = None
        #: The :class:`~repro.scene.spec.SceneSpec` this scene was built
        #: from (set by the registry); ``None`` for hand-assembled scenes.
        self.spec = None

    @property
    def packed_bvh(self):
        """SoA view of the BVH for the tracer's packet kernels (lazy).

        Built on first use, so scenes that are never traced never pay
        the array build.
        """
        if self._packed_bvh is None:
            from .bvh_packet import PackedBVH

            self._packed_bvh = PackedBVH(self.bvh)
        return self._packed_bvh

    @property
    def triangles(self) -> list[Triangle]:
        return self.bvh.triangles

    def triangle_count(self) -> int:
        return len(self.bvh.triangles)

    def node_count(self) -> int:
        return self.bvh.num_nodes

    def material_of(self, tri_index: int):
        """Material of a triangle by primitive index."""
        return self.materials[self.bvh.triangles[tri_index].material_id]

    def describe(self) -> str:
        """One-line summary used by reports and examples."""
        return (
            f"{self.name}: {self.triangle_count()} tris, "
            f"{self.node_count()} BVH nodes (depth {self.bvh.depth()}), "
            f"{len(self.lights)} lights, max_bounces={self.max_bounces}"
        )
