"""Traversal records as uint32 arrays, and the columnar frame pickle.

Every ray's node and triangle record is an ``array('I')`` from the tracer
to the simulator.  These tests hold the memory budget that layout buys,
the conversion and range check at the :class:`RaySegment` boundary, and
the columnar pickle's round trip (seal state, cost map, pixel order).
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
#: A list of Python ints costs about 35 B an entry; uint32 records,
#: with their per-record and per-segment overhead, about 14 B on this
#: frame (its records are short, so the fixed costs weigh more).
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


class TestMemoryBudget:
    def test_packet_frame_retains_at_most_budget_per_entry(self):
        tracer = FunctionalTracer(
            make_scene("BUNNY"),
            RenderSettings(width=48, height=48),
        )
        # Build the scene's packed BVH first: it is shared by every
        # frame, not retained by this one.
        tracer.trace_frame([(0, 0)])
        gc.collect()
        tracemalloc.start()
        try:
            frame = tracer.trace_frame()
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        entries = _entries(frame)
        assert entries > 100_000
        assert retained / entries <= BYTES_PER_ENTRY_BUDGET


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
            for record in result.nodes + result.tris:
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
