"""Shared fixtures: a small deterministic scene, traced frames, sims.

Expensive artifacts (frame traces, full simulations) are session-scoped;
tests must treat them as immutable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import MOBILE_SOC, CycleSimulator, compile_kernel
from repro.scene import Camera, MaterialTable, Scene, diffuse, mirror, PointLight
from repro.scene.meshes import box, ground_plane, icosphere
from repro.scene.vecmath import vec3
from repro.tracer import FunctionalTracer, RenderSettings


def make_small_scene() -> Scene:
    """A compact deterministic scene: floor, diffuse sphere, mirror box."""
    materials = MaterialTable()
    red = materials.add(diffuse(0.8, 0.2, 0.2))
    shiny = materials.add(mirror(0.9))
    floor = materials.add(diffuse(0.5, 0.5, 0.5))
    tris = ground_plane(6.0, material_id=floor)
    tris += icosphere(vec3(-0.8, 1.0, 0.0), 0.9, subdivisions=1, material_id=red)
    tris += box(vec3(1.2, 0.7, 0.0), vec3(0.6, 0.7, 0.6), material_id=shiny)
    camera = Camera(position=vec3(0.0, 1.6, 4.5), look_at=vec3(0.0, 0.9, 0.0))
    lights = [PointLight(position=vec3(3.0, 5.0, 3.0))]
    return Scene(tris, camera, lights, materials, name="small", max_bounces=2)


#: Render settings of :func:`small_settings` (a 32x32 full-plane frame).
SMALL_SETTINGS = RenderSettings(width=32, height=32, samples_per_pixel=1, seed=0)


@pytest.fixture(scope="session")
def small_scene() -> Scene:
    return make_small_scene()


@pytest.fixture(scope="session")
def small_settings() -> RenderSettings:
    return SMALL_SETTINGS


@pytest.fixture(scope="session")
def small_frame(small_scene, small_settings):
    """Full-plane trace of the small scene (32x32)."""
    return FunctionalTracer(small_scene, small_settings).trace_frame()


@pytest.fixture(scope="session")
def small_full_stats(small_scene, small_settings, small_frame):
    """Ground-truth Mobile SoC simulation of the small scene."""
    warps = compile_kernel(
        small_frame, small_settings.all_pixels(), small_scene.addresses
    )
    return CycleSimulator(MOBILE_SOC, small_scene.addresses).run(warps)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
