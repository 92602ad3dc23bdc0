"""Golden tracer-vs-reference equivalence over the full scene library.

``FunctionalTracer`` (the wavefront tracer) must be *byte-identical* to
the one-ray-at-a-time reference in ``tests/reference_tracer.py``: every
pixel's segments — node visit order, triangle test order, hit flags,
shade instruction counts — and every rendered image.  The timing
simulator replays these traces address by address, so any drift here is
metric drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scene.library import SCENE_NAMES, make_scene
from repro.tracer.tracer import FunctionalTracer, RenderSettings, trace_frame
from tests.reference_tracer import ReferenceTracer, reference_trace_frame

SIZE = 12
SPP = 2
SEED = 5


def _settings(**kw) -> RenderSettings:
    base = dict(width=SIZE, height=SIZE, samples_per_pixel=SPP, seed=SEED)
    base.update(kw)
    return RenderSettings(**base)


def _assert_frames_identical(reference, traced):
    assert set(reference.pixels) == set(traced.pixels)
    for key in reference.pixels:
        pr, pt = reference.pixels[key], traced.pixels[key]
        assert pr == pt, f"pixel {key} diverged"
    assert reference.total_cost() == traced.total_cost()


@pytest.mark.parametrize("scene_name", SCENE_NAMES)
class TestGoldenEquivalence:
    def test_frames_identical(self, scene_name):
        scene = make_scene(scene_name)
        reference = ReferenceTracer(scene, _settings()).trace_frame()
        traced = FunctionalTracer(scene, _settings()).trace_frame()
        _assert_frames_identical(reference, traced)

    def test_images_identical(self, scene_name):
        # render_image runs records off and computes radiance; images
        # must match the reference bit for bit.
        scene = make_scene(scene_name)
        img_ref = ReferenceTracer(scene, _settings()).render_image()
        img = FunctionalTracer(scene, _settings()).render_image()
        assert np.array_equal(img_ref, img)


class TestPartialPlanes:
    """Pixel subsets (what group simulation traces) stay identical too."""

    def test_pixel_subset(self):
        scene = make_scene("SPRNG")
        pixels = [(0, 0), (5, 3), (11, 11), (2, 7), (7, 2)]
        reference = reference_trace_frame(scene, _settings(), pixels)
        traced = trace_frame(scene, _settings(), pixels)
        _assert_frames_identical(reference, traced)

    def test_single_sample(self):
        scene = make_scene("PARK")
        settings = _settings(samples_per_pixel=1)
        reference = ReferenceTracer(scene, settings).trace_frame()
        traced = FunctionalTracer(scene, settings).trace_frame()
        _assert_frames_identical(reference, traced)

    def test_small_wave_size(self):
        # Waves smaller than the plane exercise the chunking path.
        scene = make_scene("SPRNG")
        reference = ReferenceTracer(scene, _settings()).trace_frame()
        traced = FunctionalTracer(scene, _settings(), wave_size=17).trace_frame()
        _assert_frames_identical(reference, traced)


class TestBackendPlumbing:
    """There is one tracer, and which tracer produced a frame never
    reaches the prediction."""

    def test_invalid_backend_rejected(self):
        # The tracing-backend option is gone; the retired keyword is an
        # error, not a silently ignored setting.
        with pytest.raises(TypeError):
            RenderSettings(tracing_backend="scalar")

    def test_predict_metrics_zero_drift(self):
        # End to end: Zatel.predict from a reference-traced frame and a
        # FunctionalTracer frame must produce the same metrics.
        from repro.core.pipeline import Zatel
        from repro.gpu.config import preset

        scene = make_scene("SPRNG")
        gpu = preset("mobile")
        settings = _settings(width=32, height=32, samples_per_pixel=1)
        results = [
            Zatel(gpu).predict(scene, tracer(scene, settings).trace_frame())
            for tracer in (ReferenceTracer, FunctionalTracer)
        ]
        assert results[0].metrics == results[1].metrics
