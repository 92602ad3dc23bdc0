"""Tests for trace structures, the PTX model and the functional tracer."""

import numpy as np
import pytest

from repro.scene import Camera, MaterialTable, PointLight, Scene, diffuse, mirror
from repro.scene.meshes import ground_plane, icosphere
from repro.scene.vecmath import vec3
from repro.tracer import (
    FILTER_EXIT_INSTRUCTIONS,
    FunctionalTracer,
    InstructionClass,
    PTXInstruction,
    PixelTrace,
    RaySegment,
    RenderSettings,
    SegmentKind,
    inject_filter_shader,
    raygen_shader,
    trace_frame,
)


class TestTraceStructures:
    def make_trace(self):
        return PixelTrace(
            px=1,
            py=2,
            segments=[
                RaySegment(SegmentKind.PRIMARY, [0, 1, 2], [5], True, 12),
                RaySegment(SegmentKind.SHADOW, [0, 3], [], False, 5),
            ],
        )

    def test_totals(self):
        trace = self.make_trace()
        assert trace.total_nodes() == 5
        assert trace.total_tris() == 1
        assert trace.total_instructions() == 24 + 12 + 5

    def test_cost_is_positive_and_monotone_in_work(self):
        trace = self.make_trace()
        lighter = PixelTrace(px=0, py=0, segments=trace.segments[:1])
        assert trace.cost() > lighter.cost() > 0


class TestPTX:
    def test_raygen_instruction_count(self):
        shader = raygen_shader(setup_instructions=20)
        assert shader.instruction_count(InstructionClass.TRACE) == 1
        assert shader.instruction_count(InstructionClass.STORE) == 1
        assert shader.instruction_count() > 20

    def test_filter_injection_prepends_two_instructions(self):
        shader = raygen_shader()
        injected = inject_filter_shader(shader)
        assert injected.instructions[0].opcode == "filter_shader"
        assert (
            injected.instruction_count()
            == shader.instruction_count() + FILTER_EXIT_INSTRUCTIONS
        )
        # The original is untouched (prepend is pure).
        assert shader.instructions[0].opcode != "filter_shader"

    def test_instruction_repeat_validated(self):
        with pytest.raises(ValueError):
            PTXInstruction("nop", InstructionClass.ALU, repeat=0)


@pytest.fixture(scope="module")
def lit_scene():
    materials = MaterialTable()
    red = materials.add(diffuse(0.9, 0.1, 0.1))
    shiny = materials.add(mirror(1.0))
    tris = ground_plane(4.0)
    tris += icosphere(vec3(0, 1, 0), 0.8, subdivisions=1, material_id=red)
    tris += icosphere(vec3(1.8, 0.5, 0), 0.5, subdivisions=1, material_id=shiny)
    camera = Camera(position=vec3(0, 1.2, 4), look_at=vec3(0, 0.8, 0))
    return Scene(
        tris, camera, [PointLight(position=vec3(0, 6, 2))], materials,
        name="lit", max_bounces=2,
    )


class TestRenderSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            RenderSettings(width=0, height=8)
        with pytest.raises(ValueError):
            RenderSettings(width=8, height=8, samples_per_pixel=0)

    def test_all_pixels_row_major(self):
        settings = RenderSettings(width=3, height=2)
        assert list(settings.all_pixels()) == [
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
        ]
        assert settings.pixel_count() == 6

    def test_all_pixels_cached(self):
        settings = RenderSettings(width=3, height=2)
        # The plane is immutable and cached: repeated calls return the
        # same tuple instead of materializing a fresh list.
        assert settings.all_pixels() is settings.all_pixels()
        assert isinstance(settings.all_pixels(), tuple)


def _trace_pixel(scene, settings, px, py):
    """One pixel's trace, traced on its own."""
    return trace_frame(scene, settings, pixels=[(px, py)]).get(px, py)


class TestFunctionalTracer:
    def test_deterministic(self, lit_scene):
        settings = RenderSettings(width=8, height=8, seed=3)
        a = _trace_pixel(lit_scene, settings, 4, 4)
        b = _trace_pixel(lit_scene, settings, 4, 4)
        assert a.total_nodes() == b.total_nodes()
        assert [s.kind for s in a.segments] == [s.kind for s in b.segments]

    def test_primary_segment_first(self, lit_scene):
        settings = RenderSettings(width=8, height=8)
        trace = _trace_pixel(lit_scene, settings, 4, 4)
        assert trace.segments[0].kind is SegmentKind.PRIMARY
        assert trace.segments[0].nodes  # traversal visited the root at least

    def test_hit_spawns_shadow_segment(self, lit_scene):
        settings = RenderSettings(width=8, height=8)
        trace = _trace_pixel(lit_scene, settings, 4, 5)
        kinds = [s.kind for s in trace.segments]
        if trace.segments[0].hit:
            assert SegmentKind.SHADOW in kinds

    def test_miss_costs_less_than_hit(self, lit_scene):
        settings = RenderSettings(width=16, height=16)
        sky = _trace_pixel(lit_scene, settings, 8, 0)  # top row: sky
        center = _trace_pixel(lit_scene, settings, 8, 10)  # sphere
        assert sky.cost() < center.cost()

    def test_trace_frame_covers_requested_pixels(self, lit_scene):
        settings = RenderSettings(width=8, height=8)
        subset = [(0, 0), (3, 3), (7, 7)]
        frame = trace_frame(lit_scene, settings, pixels=subset)
        assert set(frame.pixels) == set(subset)
        full = trace_frame(lit_scene, settings)
        assert len(full.pixels) == 64

    def test_spp_multiplies_segments(self, lit_scene):
        one = trace_frame(lit_scene, RenderSettings(width=4, height=4))
        two = trace_frame(
            lit_scene, RenderSettings(width=4, height=4, samples_per_pixel=2)
        )
        assert two.get(2, 2).total_nodes() > one.get(2, 2).total_nodes()

    def test_cost_map_shape_and_positivity(self, lit_scene):
        frame = trace_frame(lit_scene, RenderSettings(width=8, height=6))
        cm = frame.cost_map()
        assert cm.shape == (6, 8)
        assert (cm > 0).all()

    def test_render_image_in_unit_range(self, lit_scene):
        settings = RenderSettings(width=8, height=8)
        image = FunctionalTracer(lit_scene, settings).render_image()
        assert image.shape == (8, 8, 3)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_mirror_scene_creates_reflection_segments(self, lit_scene):
        frame = trace_frame(lit_scene, RenderSettings(width=24, height=24))
        kinds = {
            s.kind for t in frame.pixels.values() for s in t.segments
        }
        assert SegmentKind.REFLECTION in kinds

    def test_max_bounces_bounds_segments(self, lit_scene):
        frame = trace_frame(lit_scene, RenderSettings(width=16, height=16))
        lights = len(lit_scene.lights)
        per_sample_cap = (lit_scene.max_bounces + 1) * (1 + lights)
        for trace in frame.pixels.values():
            assert len(trace.segments) <= per_sample_cap


class TestContinuationHelpers:
    """The wave loop's scalar helpers reproduce what they replace exactly."""

    def test_cosine_direction_matches_spherical_direction_bitwise(self):
        from repro.scene.vecmath import normalize, spherical_direction
        from repro.tracer.tracer import _cosine_direction

        rng = np.random.default_rng(3)
        normals = [normalize(n) for n in rng.normal(size=(200, 3))]
        normals += [
            vec3(0.0, 0.0, 1.0), vec3(0.0, 0.0, -1.0), vec3(1.0, 0.0, -0.0),
            vec3(0.0, -1.0, 0.0), vec3(-0.0, 0.0, 1.0),
        ]
        for normal in normals:
            for u, v in rng.random((5, 2)).tolist() + [(0.0, 0.0), (0.0, 1.0)]:
                expected = spherical_direction(u, v, normal)
                got = np.array(_cosine_direction(u, v, *normal.tolist()))
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("draws", [0, 1, 4, 18])
    def test_path_stream_is_the_generators_first_draws(self, draws):
        import random

        from repro.tracer.tracer import _path_stream

        key = (7 << 48) ^ (93 << 28) ^ (41 << 8) ^ 1
        stream = _path_stream(key, draws)
        reference = random.Random(key)
        assert [stream.pop() for _ in range(draws)] == [
            reference.random() for _ in range(draws)
        ]

    def test_path_stream_raises_past_its_bound(self):
        from repro.tracer.tracer import _path_stream

        stream = _path_stream(5, 2)
        stream.pop()
        stream.pop()
        with pytest.raises(IndexError):
            stream.pop()


class TestTraceWorkingSet:
    """A trace's transient allocations stay a small multiple of its frame."""

    #: Allowed tracemalloc peak over the bytes the traced frame retains.
    #: A 64x64 SPNZA trace peaked at 5.9x with per-path generator states
    #: and int64 record logs, and peaks at 2.7x without them.
    PEAK_OVER_RETAINED = 4.0

    def test_spnza_trace_peak_is_bounded_by_its_frame(self):
        import gc
        import tracemalloc

        from repro.scene import make_scene

        scene = make_scene("SPNZA")
        scene.packed_bvh
        tracer = FunctionalTracer(scene, RenderSettings(width=64, height=64))
        tracer.settings.all_pixels()
        gc.collect()
        tracemalloc.start()
        try:
            frame = tracer.trace_frame()
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert frame.columns().entry_count() > 0
        assert peak <= self.PEAK_OVER_RETAINED * retained, (
            f"trace peaked at {peak / retained:.2f}x the {retained} bytes "
            "its frame retains"
        )
