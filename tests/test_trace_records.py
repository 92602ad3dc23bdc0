"""Frames as CSR columns, uint32 records, and the columnar frame pickle.

A sealed frame keeps its traces as columns: one uint32 node buffer and
one triangle buffer plus offsets, with no per-segment object; a segment
read through ``frame.pixels`` is an ``array('I')`` view built on request.
These tests hold the memory contract that layout buys, the conversion and
range check at the :class:`RaySegment` boundary, and the round trips of
hand-built and traced frames through ``seal()``, pickle and ``.ztrace``.
"""

import gc
import pickle
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.harness.runner import Runner, Workload
from repro.scene.bvh import TraversalRecord
from repro.scene.geometry import Ray
from repro.scene.library import make_scene
from repro.tracer import (
    FrameTrace,
    FunctionalTracer,
    PixelTrace,
    RaySegment,
    RenderSettings,
    SegmentKind,
)
from tests.reference_tracer import ReferenceTracer

#: Retained bytes allowed per node or triangle entry of a traced frame.
#: A list of Python ints costs about 35 B an entry, one ``array('I')`` per
#: record with its segment object 70 B on SPRNG 128x128 (short records,
#: so the per-segment objects dominate); CSR columns about 10 B there and
#: 5 B on BUNNY, where records are long.
BYTES_PER_ENTRY_BUDGET = 16


def _entries(frame: FrameTrace) -> int:
    return sum(
        len(s.nodes) + len(s.tris)
        for trace in frame.pixels.values()
        for s in trace.segments
    )


def _records(frame: FrameTrace):
    for trace in frame.pixels.values():
        for segment in trace.segments:
            yield segment.nodes
            yield segment.tris


def _hand_built(seal: bool) -> FrameTrace:
    frame = FrameTrace(width=4, height=2, samples_per_pixel=1, scene_name="hb")
    frame.pixels[(3, 1)] = PixelTrace(
        px=3, py=1, raygen_instructions=30,
        segments=[
            RaySegment(SegmentKind.PRIMARY, [0, 1, 2**32 - 1], [5], True, 70_000),
            RaySegment(SegmentKind.SHADOW, [0, 3], [], False, 5),
        ],
    )
    frame.pixels[(0, 0)] = PixelTrace(px=0, py=0)  # no segments
    frame.pixels[(1, 0)] = PixelTrace(
        px=1, py=0,
        segments=[RaySegment(SegmentKind.BOUNCE, [], [], False, 0)],
    )
    return frame.seal() if seal else frame


def _round_trip(frame: FrameTrace) -> FrameTrace:
    return pickle.loads(pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL))


def _retained_bytes(tracer: FunctionalTracer) -> tuple[FrameTrace, int]:
    """A full-plane frame and the bytes it retains (tracemalloc)."""
    # Build the scene's packed BVH and the settings' cached plane
    # coordinates first: every frame shares them, none retains them.
    tracer.trace_frame([(0, 0)])
    tracer.settings.all_pixels()
    gc.collect()
    tracemalloc.start()
    try:
        frame = tracer.trace_frame()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return frame, retained


def _tracked_objects_retained(size: int) -> tuple[int, int]:
    """Segments of a SPRNG ``size``x``size`` frame, and the GC-tracked
    objects tracing it added to the heap."""
    tracer = FunctionalTracer(
        make_scene("SPRNG"), RenderSettings(width=size, height=size)
    )
    tracer.trace_frame([(0, 0)])
    tracer.settings.all_pixels()  # shared by every frame, like the BVH
    gc.collect()
    before = len(gc.get_objects())
    frame = tracer.trace_frame()
    gc.collect()
    return frame.columns().segment_count, len(gc.get_objects()) - before


class TestMemoryBudget:
    def test_packet_frame_retains_at_most_budget_per_entry(self):
        tracer = FunctionalTracer(
            make_scene("BUNNY"),
            RenderSettings(width=48, height=48),
        )
        frame, retained = _retained_bytes(tracer)
        entries = _entries(frame)
        assert entries > 100_000
        assert retained / entries <= BYTES_PER_ENTRY_BUDGET

    def test_short_record_frame_retains_at_most_budget_per_entry(self):
        # SPRNG's records are short, so per-segment overhead dominates.
        tracer = FunctionalTracer(
            make_scene("SPRNG"), RenderSettings(width=128, height=128)
        )
        frame, retained = _retained_bytes(tracer)
        entries = frame.columns().entry_count()
        assert entries == _entries(frame) > 100_000
        assert retained / entries <= BYTES_PER_ENTRY_BUDGET

    def test_tracked_objects_do_not_grow_with_segments(self):
        small_segments, small_objects = _tracked_objects_retained(16)
        large_segments, large_objects = _tracked_objects_retained(128)
        assert large_segments > 50 * small_segments
        assert large_objects == small_objects < 50


class TestRecordType:
    @pytest.mark.parametrize(
        "tracer", [ReferenceTracer, FunctionalTracer], ids=["scalar", "packet"]
    )
    def test_tracers_emit_uint32_arrays(self, small_scene, tracer):
        frame = tracer(small_scene, RenderSettings(width=8, height=8)).trace_frame()
        records = list(_records(frame))
        assert records
        assert all(type(r) is array and r.typecode == "I" for r in records)

    def test_traversal_record_defaults_to_uint32_arrays(self):
        record = TraversalRecord()
        assert type(record.nodes_visited) is array
        assert record.nodes_visited.typecode == "I"
        assert record.tris_tested.typecode == "I"
        assert TraversalRecord().nodes_visited is not record.nodes_visited

    def test_zero_direction_rays_record_uint32_arrays(self, small_scene):
        from repro.scene.bvh_packet import PackedBVH

        packed = PackedBVH(small_scene.bvh)
        rays = [
            Ray(origin=np.array([0.0, 1.0, 4.0]), direction=np.array([0.0, 0.0, -1.0])),
            Ray(origin=np.array([0.0, 1.0, 4.0]), direction=np.array([0.1, -0.2, -1.0])),
        ]
        for result in (packed.intersect_batch(rays), packed.occluded_batch(rays)):
            for record in [*result.nodes, *result.tris]:
                assert type(record) is array and record.typecode == "I"

    def test_hand_built_lists_become_uint32_arrays(self):
        segment = RaySegment(SegmentKind.PRIMARY, [0, 1, 2**32 - 1], (7,), True, 3)
        assert segment.nodes == array("I", [0, 1, 2**32 - 1])
        assert segment.tris == array("I", [7])
        assert segment.nodes.typecode == segment.tris.typecode == "I"

    def test_other_array_typecodes_are_converted(self):
        segment = RaySegment(SegmentKind.SHADOW, array("l", [4, 5]), [], False, 1)
        assert segment.nodes.typecode == "I"
        assert list(segment.nodes) == [4, 5]

    def test_uint32_arrays_pass_through_unchanged(self):
        nodes = array("I", [1, 2])
        assert RaySegment(SegmentKind.PRIMARY, nodes, [], True, 1).nodes is nodes

    @pytest.mark.parametrize("field", ["nodes", "tris"])
    @pytest.mark.parametrize("bad", [-1, 2**32])
    def test_out_of_range_index_raises_naming_the_field(self, field, bad):
        records = {"nodes": [0], "tris": [0]}
        records[field] = [0, bad]
        with pytest.raises(ValueError, match=f"RaySegment.{field}"):
            RaySegment(SegmentKind.PRIMARY, hit=True, shade_instructions=1, **records)


class TestColumnarPickle:
    def test_sealed_frame_stays_sealed_with_its_cost_map(self):
        frame = _hand_built(seal=True)
        restored = _round_trip(frame)
        assert restored == frame
        assert restored.sealed
        assert np.array_equal(restored.cost_map(), frame.cost_map())
        assert not restored._costs.flags.writeable
        with pytest.raises(TypeError, match="sealed"):
            restored.pixels[(2, 0)] = PixelTrace(px=2, py=0)
        with pytest.raises(TypeError, match="sealed"):
            restored.width = 8

    def test_unsealed_frame_stays_unsealed(self):
        frame = _hand_built(seal=False)
        restored = _round_trip(frame)
        assert restored == frame
        assert not restored.sealed
        restored.pixels[(2, 0)] = PixelTrace(px=2, py=0)  # still mutable

    def test_pixel_and_segment_order_survive(self):
        frame = _hand_built(seal=True)
        restored = _round_trip(frame)
        assert list(restored.pixels) == list(frame.pixels)
        for key, trace in frame.pixels.items():
            kinds = [s.kind for s in restored.pixels[key].segments]
            assert kinds == [s.kind for s in trace.segments]

    def test_records_stay_uint32_and_unshared(self):
        restored = _round_trip(_hand_built(seal=True))
        records = list(_records(restored))
        assert all(type(r) is array and r.typecode == "I" for r in records)
        assert len({id(r) for r in records}) == len(records)

    def test_empty_frame(self):
        for frame in (
            FrameTrace(width=3, height=3, samples_per_pixel=1, scene_name="e"),
            FrameTrace(width=3, height=3, samples_per_pixel=1, scene_name="e").seal(),
        ):
            restored = _round_trip(frame)
            assert restored == frame
            assert restored.pixels == {}
            assert restored.sealed == frame.sealed

    def test_pixels_with_zero_segments(self):
        frame = FrameTrace(width=2, height=1, samples_per_pixel=1, scene_name="z")
        frame.pixels[(0, 0)] = PixelTrace(px=0, py=0, raygen_instructions=9)
        frame.pixels[(1, 0)] = PixelTrace(px=1, py=0)
        restored = _round_trip(frame.seal())
        assert restored == frame
        assert restored.total_cost() == frame.total_cost() == 9.0 + 24.0

    def test_two_sample_frame(self, small_scene):
        frame = FunctionalTracer(
            small_scene,
            RenderSettings(width=8, height=8, samples_per_pixel=2),
        ).trace_frame()
        restored = _round_trip(frame)
        assert restored == frame
        assert restored.samples_per_pixel == 2
        assert restored.total_cost() == frame.total_cost()

    def test_runner_frame_reread_from_disk(self, tmp_path):
        workload = Workload("SPRNG", width=12, height=12)
        traced = Runner(tmp_path).frame(workload)
        reread = Runner(tmp_path).frame(workload)  # fresh store: unpickles
        assert reread is not traced
        assert reread == traced
        assert reread.sealed
        assert np.array_equal(reread.cost_map(), traced.cost_map())
        assert list(reread.pixels) == list(traced.pixels)


class TestHandBuiltRoundTrip:
    """A traced frame rebuilt by hand packs to the very same columns."""

    @pytest.fixture(scope="class")
    def traced(self):
        return FunctionalTracer(
            make_scene("SPRNG"),
            RenderSettings(width=12, height=10, samples_per_pixel=2),
        ).trace_frame()

    @staticmethod
    def _rebuild(traced: FrameTrace) -> FrameTrace:
        """Mutable copies of every view, in the traced pixel order."""
        frame = FrameTrace(
            traced.width, traced.height, traced.samples_per_pixel,
            traced.scene_name,
        )
        for key, view in traced.pixels.items():
            frame.pixels[key] = PixelTrace(
                view.px, view.py,
                [
                    RaySegment(
                        s.kind, list(s.nodes), list(s.tris), s.hit,
                        s.shade_instructions,
                    )
                    for s in view.segments
                ],
                view.raygen_instructions,
            )
        return frame

    def test_seal_packs_the_traced_columns(self, traced):
        frame = self._rebuild(traced)
        assert frame == traced
        assert frame.seal() == traced
        assert frame.columns().equals(traced.columns())
        assert np.array_equal(frame.cost_map(), traced.cost_map())

    def test_pickle(self, traced):
        for frame in (self._rebuild(traced), self._rebuild(traced).seal()):
            restored = _round_trip(frame)
            assert restored == traced
            assert restored.sealed == frame.sealed
            assert restored.columns().equals(traced.columns())

    def test_ztrace(self, traced, tmp_path):
        from repro.tracer import load_frame, save_frame

        for name, frame in (
            ("hand.ztrace", self._rebuild(traced)), ("traced.ztrace", traced)
        ):
            loaded = load_frame(save_frame(frame, tmp_path / name))
            assert loaded == traced
            assert loaded.columns().equals(traced.columns())
        assert (tmp_path / "hand.ztrace").read_bytes() == (
            tmp_path / "traced.ztrace"
        ).read_bytes()

    def test_views_are_read_only(self, traced):
        trace = traced.get(0, 0)
        assert traced.get(0, 0) is trace  # one view while it is held
        with pytest.raises(TypeError, match="sealed"):
            trace.raygen_instructions = 1
        with pytest.raises(TypeError, match="sealed"):
            trace.segments[0].shade_instructions += 1
        with pytest.raises(AttributeError):
            trace.segments.append(trace.segments[0])
