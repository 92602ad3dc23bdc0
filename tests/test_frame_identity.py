"""Frame identity: sealed frames keep every ``frame_fingerprint`` exact.

``tests/data/frame_fingerprints.json`` pins the fingerprint of each library
scene at 24x24, captured before frames carried a sealed cost map.  Every
producer (``FunctionalTracer``, the scalar reference tracer in
``tests/reference_tracer.py``, the ``.ztrace`` loader) must reproduce those
keys, or every on-disk store would silently go cold.

Regenerating (only after an *intentional* tracer-model change)::

    PYTHONPATH=src python tests/data/regen_frame_fingerprints.py
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.stages.fingerprint import frame_fingerprint
from repro.harness.runner import Runner, Workload
from repro.scene.library import SCENE_NAMES, make_scene
from repro.tracer import (
    FrameTrace,
    FunctionalTracer,
    PixelTrace,
    RaySegment,
    RenderSettings,
    SegmentKind,
    load_frame,
    save_frame,
)
from tests.reference_tracer import ReferenceTracer

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "frame_fingerprints.json").read_text()
)
META = FIXTURE["meta"]


def _trace(scene_name: str, tracer=FunctionalTracer) -> FrameTrace:
    return tracer(
        make_scene(scene_name),
        RenderSettings(
            width=META["size"], height=META["size"],
            samples_per_pixel=META["spp"], seed=META["seed"],
        ),
    ).trace_frame()


def _hand_built() -> FrameTrace:
    frame = FrameTrace(width=4, height=2, samples_per_pixel=1, scene_name="hand")
    for x in range(3):
        trace = PixelTrace(px=x, py=1, raygen_instructions=10 + x)
        trace.segments.append(
            RaySegment(
                kind=SegmentKind.PRIMARY,
                nodes=list(range(x + 2)),
                tris=[x],
                hit=True,
                shade_instructions=5,
            )
        )
        frame.pixels[(x, 1)] = trace
    return frame


def test_fixture_covers_all_scenes():
    assert set(FIXTURE["fingerprints"]) == set(SCENE_NAMES)


@pytest.mark.parametrize("scene_name", SCENE_NAMES)
def test_producers_reproduce_committed_fingerprints(scene_name, tmp_path):
    expected = FIXTURE["fingerprints"][scene_name]
    reference = _trace(scene_name, ReferenceTracer)
    traced = _trace(scene_name)
    loaded = load_frame(save_frame(traced, tmp_path / "frame.ztrace"))
    for frame in (reference, traced, loaded):
        assert frame.sealed
        assert frame_fingerprint(frame) == expected


class TestSealedFrame:
    @pytest.fixture(scope="class")
    def frame(self):
        return _trace("SPRNG")

    def test_total_cost_is_a_python_float(self, frame):
        assert type(frame.total_cost()) is float
        assert type(_hand_built().total_cost()) is float

    def test_sealed_map_matches_on_demand_costs(self, frame):
        unsealed = FrameTrace(
            width=frame.width,
            height=frame.height,
            samples_per_pixel=frame.samples_per_pixel,
            scene_name=frame.scene_name,
            pixels=dict(frame.pixels),
        )
        assert not unsealed.sealed
        assert np.array_equal(unsealed.cost_map(), frame.cost_map())
        assert unsealed.total_cost() == frame.total_cost()
        assert frame_fingerprint(unsealed) == frame_fingerprint(frame)

    def test_cost_map_is_a_private_copy(self, frame):
        costs = frame.cost_map()
        costs[:] = -1.0
        assert frame.cost_map().min() >= 0.0

    def test_adding_or_replacing_a_pixel_raises(self, frame):
        trace = frame.get(0, 0)
        with pytest.raises(TypeError):
            frame.pixels[(0, 0)] = trace
        with pytest.raises(TypeError):
            frame.pixels[(frame.width, 0)] = trace
        with pytest.raises(TypeError):
            frame.pixels.update({(0, 0): trace})
        with pytest.raises(TypeError):
            del frame.pixels[(0, 0)]
        with pytest.raises(TypeError):
            frame.pixels = {}
        assert frame.get(0, 0) is trace

    def test_pickle_keeps_the_seal(self, frame):
        clone = pickle.loads(pickle.dumps(frame))
        assert clone.sealed
        assert clone == frame
        assert np.array_equal(clone.cost_map(), frame.cost_map())
        assert frame_fingerprint(clone) == frame_fingerprint(frame)
        with pytest.raises(TypeError):
            clone.pixels[(0, 0)] = clone.get(0, 0)

    def test_runner_disk_cache_keeps_the_seal(self, tmp_path):
        workload = Workload("SPRNG", width=16, height=16)
        traced = Runner(tmp_path).frame(workload)
        reread = Runner(tmp_path).frame(workload)
        assert reread is not traced
        assert reread.sealed
        assert frame_fingerprint(reread) == frame_fingerprint(traced)


class TestHandBuiltFrame:
    def test_stays_mutable_and_unsealed(self):
        frame = _hand_built()
        assert not frame.sealed
        before = frame.total_cost()
        frame.pixels[(3, 0)] = PixelTrace(px=3, py=0, raygen_instructions=7)
        assert frame.total_cost() == before + 7.0
        assert frame.cost_map()[0, 3] == 7.0

    def test_sealing_freezes_the_current_costs(self):
        frame = _hand_built()
        expected = frame.cost_map()
        assert frame.seal() is frame
        assert frame.seal() is frame  # idempotent
        assert np.array_equal(frame.cost_map(), expected)
        with pytest.raises(TypeError):
            frame.pixels[(3, 0)] = PixelTrace(px=3, py=0)

    def test_unpickled_unsealed_frame_computes_on_demand(self):
        # Frames cached before sealing existed unpickle without a map.
        frame = _hand_built()
        clone = pickle.loads(pickle.dumps(frame))
        assert not clone.sealed
        assert clone.total_cost() == frame.total_cost()
