"""Scalar reference tracer: one ray at a time, the oracle for the tracer.

:class:`repro.tracer.tracer.FunctionalTracer` advances whole wavefronts
of paths through the packet BVH.  Its contract is *byte-identical*
output to this per-ray tracer: every pixel's segments (node visit order,
triangle test order, hit flags, shade instruction counts) and every
rendered image.  The code below is the scalar tracer the package shipped
before the wavefront tracer became its only tracer, kept verbatim so the
tests and the ``tests/data/regen_*.py`` scripts can compare against it.
It walks the scalar :class:`~repro.scene.bvh.BVH` with
``BVH.intersect``/``BVH.occluded``.

Usage::

    from tests.reference_tracer import ReferenceTracer
    frame = ReferenceTracer(scene, settings).trace_frame(pixels)
    image = ReferenceTracer(scene, settings).render_image()
"""

from __future__ import annotations

import random

import numpy as np

from repro.scene.bvh import TraversalRecord
from repro.scene.geometry import Ray
from repro.scene.scene import Scene
from repro.scene.vecmath import dot, reflect, spherical_direction, vec3
from repro.tracer.trace import FrameTrace, PixelTrace, RaySegment, SegmentKind
from repro.tracer.tracer import RenderSettings

__all__ = ["ReferenceTracer", "reference_trace_frame"]

#: Shader instructions for a miss (environment lookup + blend).
_MISS_SHADE_COST = 6
#: Shader instructions to fold one shadow-ray result into the pixel colour.
_SHADOW_SHADE_COST = 5
#: Extra instructions to set up a continuation (reflection/bounce) ray.
_CONTINUATION_COST = 8


def _sky_color(direction: np.ndarray) -> np.ndarray:
    """Simple vertical-gradient environment."""
    t = 0.5 * (float(direction[1]) + 1.0)
    return (1.0 - t) * vec3(0.9, 0.9, 0.95) + t * vec3(0.4, 0.6, 0.9)


class ReferenceTracer:
    """Traces pixels of one scene under fixed render settings."""

    def __init__(self, scene: Scene, settings: RenderSettings) -> None:
        self.scene = scene
        self.settings = settings

    def trace_pixel(self, px: int, py: int) -> tuple[PixelTrace, np.ndarray]:
        """Trace all samples of one pixel.

        Returns the pixel's trace and its averaged RGB radiance.
        """
        scene = self.scene
        settings = self.settings
        trace = PixelTrace(px=px, py=py)
        color = vec3(0.0, 0.0, 0.0)
        for sample in range(settings.samples_per_pixel):
            rng = random.Random(
                (settings.seed << 48)
                ^ (py << 28)
                ^ (px << 8)
                ^ sample
            )
            if sample == 0:
                jitter = (0.5, 0.5)
            else:
                jitter = (rng.random(), rng.random())
            ray = scene.camera.primary_ray(
                px, py, settings.width, settings.height, jitter
            )
            color = color + self._trace_path(ray, rng, trace)
        return trace, color / settings.samples_per_pixel

    def _trace_path(
        self, ray: Ray, rng: random.Random, trace: PixelTrace
    ) -> np.ndarray:
        """Follow one light path, appending its segments to ``trace``."""
        scene = self.scene
        bvh = scene.bvh
        color = vec3(0.0, 0.0, 0.0)
        throughput = vec3(1.0, 1.0, 1.0)
        kind = SegmentKind.PRIMARY

        for depth in range(scene.max_bounces + 1):
            record = TraversalRecord()
            hit = bvh.intersect(ray, record)
            if hit is None:
                trace.segments.append(
                    RaySegment(
                        kind=kind,
                        nodes=record.nodes_visited,
                        tris=record.tris_tested,
                        hit=False,
                        shade_instructions=_MISS_SHADE_COST,
                    )
                )
                color = color + throughput * _sky_color(ray.direction)
                break

            material = scene.materials[hit.material_id]
            shade = material.shade_cost
            trace.segments.append(
                RaySegment(
                    kind=kind,
                    nodes=record.nodes_visited,
                    tris=record.tris_tested,
                    hit=True,
                    shade_instructions=shade,
                )
            )
            if material.is_emissive():
                color = color + throughput * material.emission

            # Next-event estimation: one shadow ray per light (paper Fig. 1).
            for light in scene.lights:
                shadow_ray, distance = light.shadow_ray(
                    hit.point + hit.normal * 1e-4
                )
                shadow_record = TraversalRecord()
                occluded = bvh.occluded(shadow_ray, shadow_record)
                trace.segments.append(
                    RaySegment(
                        kind=SegmentKind.SHADOW,
                        nodes=shadow_record.nodes_visited,
                        tris=shadow_record.tris_tested,
                        hit=occluded,
                        shade_instructions=_SHADOW_SHADE_COST,
                    )
                )
                if not occluded:
                    cos_theta = max(0.0, dot(hit.normal, shadow_ray.direction))
                    color = color + (
                        throughput
                        * material.albedo
                        * light.irradiance_at(distance)
                        * cos_theta
                    )

            if depth == scene.max_bounces:
                break

            # Continuation: mirror reflection, else russian-roulette diffuse
            # bounce (only for path-traced scenes, max_bounces >= 2).
            if material.reflectivity > 0.0 and rng.random() < material.reflectivity:
                direction = reflect(ray.direction, hit.normal)
                kind = SegmentKind.REFLECTION
                throughput = throughput * material.albedo
            elif scene.max_bounces >= 2:
                survive = float(np.max(material.albedo))
                if rng.random() >= survive:
                    break
                direction = spherical_direction(
                    rng.random(), rng.random(), hit.normal
                )
                kind = SegmentKind.BOUNCE
                throughput = throughput * material.albedo / max(survive, 1e-6)
            else:
                break
            # The continuation ray's setup cost attaches to the segment we
            # just recorded (its shader issues the next traceRayEXT).
            trace.segments[-1].shade_instructions += _CONTINUATION_COST
            ray = Ray(
                origin=hit.point + hit.normal * 1e-4,
                direction=direction,
            )
        return color

    def trace_frame(
        self, pixels: list[tuple[int, int]] | None = None
    ) -> FrameTrace:
        """Trace a set of pixels (default: the whole plane).

        Returns a sealed :class:`FrameTrace`; radiance values are discarded
        here — use :meth:`render_image` when colours are wanted.
        """
        settings = self.settings
        frame = FrameTrace(
            width=settings.width,
            height=settings.height,
            samples_per_pixel=settings.samples_per_pixel,
            scene_name=self.scene.name,
        )
        for px, py in pixels if pixels is not None else settings.all_pixels():
            trace, _ = self.trace_pixel(px, py)
            frame.pixels[(px, py)] = trace
        return frame.seal()

    def render_image(self) -> np.ndarray:
        """Render the full plane to an ``(H, W, 3)`` float RGB image."""
        settings = self.settings
        image = np.zeros((settings.height, settings.width, 3), dtype=np.float64)
        for px, py in settings.all_pixels():
            _, color = self.trace_pixel(px, py)
            image[py, px] = np.clip(color, 0.0, 1.0)
        return image


def reference_trace_frame(
    scene: Scene,
    settings: RenderSettings,
    pixels: list[tuple[int, int]] | None = None,
) -> FrameTrace:
    """Convenience wrapper: trace ``pixels`` of ``scene`` under ``settings``."""
    return ReferenceTracer(scene, settings).trace_frame(pixels)
