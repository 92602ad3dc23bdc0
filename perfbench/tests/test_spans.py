"""Self-time arithmetic and the span wrappers on every boundary."""

import pytest

from perfbench.spans import (
    BOUNDARIES,
    Span,
    SpanRecorder,
    Tracer,
    covered,
    op_breakdown,
    self_times,
)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(3.0)
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 20.0)]) == pytest.approx(2.0)
    assert covered(0.0, 10.0, [(1.0, 2.0), (5.0, 6.0)]) == pytest.approx(2.0)


def test_self_time_is_duration_minus_children():
    spans = [
        Span("op", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 2.0, 3.0, parent=1),
        Span("c", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_concurrent_children_are_not_double_counted():
    spans = [Span("op", 0.0, 10.0), Span("a", 1.0, 6.0, parent=0), Span("a", 2.0, 7.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_breakdown_layers_plus_unattributed_equal_op_time():
    spans = [
        Span("op.cold", 0.0, 10.0),
        Span("sim", 1.0, 7.0, parent=0),
        Span("compile", 7.0, 8.0, parent=0),
        Span("store", 2.0, 3.0, parent=1),
        Span("op.cold", 20.0, 24.0),
        Span("sim", 20.5, 23.0, parent=4),
        Span("unrelated", 30.0, 40.0),
    ]
    out = op_breakdown(spans, "op.cold")
    assert out["ops"] == 2
    assert out["op_s"] == pytest.approx(14.0)
    assert out["largest_layer"] == "sim"
    assert out["layers_self_s"]["sim"] == pytest.approx(5.0 + 2.5)
    assert "unrelated" not in out["layers_self_s"]
    total = sum(out["layers_self_s"].values()) + out["unattributed_s"]
    assert total == pytest.approx(out["op_s"])


def test_recorder_shares_the_op_id_down_the_tree():
    recorder = SpanRecorder()
    with recorder.op("op7"), recorder.span("outer"):
        with recorder.span("inner"):
            pass
    with recorder.span("free"):
        pass
    outer, inner, free = recorder.spans
    assert inner.parent == 0 and outer.parent is None
    assert outer.op == inner.op == "op7"
    assert free.op.startswith("root")


def test_every_boundary_fires_once_wrapped_and_is_restored(tmp_path):
    import repro.core.pipeline as pipeline
    import repro.gpu.frontend as frontend
    from repro.core.pipeline import Zatel
    from repro.core.stages.base import Stage
    from repro.core.stages.concrete import ProfileStage
    from repro.core.stages.requests import PredictSpec
    from repro.gpu.config import MOBILE_SOC
    from repro.harness.runner import Runner
    from repro.harness.service import ServiceRunner
    from repro.scene.registry import resolve_scene
    from repro.tracer.tracer import FunctionalTracer, RenderSettings

    original_compile = frontend.compile_kernel
    tracer = Tracer()
    with tracer:
        assert pipeline.compile_kernel is not original_compile
        scene = resolve_scene("SPRNG")
        frame = FunctionalTracer(scene, RenderSettings(width=8, height=8)).trace_frame()
        Zatel(MOBILE_SOC).predict(scene, frame)
        ServiceRunner(Runner(cache_dir=tmp_path)).execute(PredictSpec("SPRNG", size=8))
    names = {span.name for span in tracer.recorder.spans}
    assert {layer for _, _, layer in BOUNDARIES} <= names
    assert pipeline.compile_kernel is original_compile
    assert frontend.compile_kernel is original_compile
    assert "execute" not in vars(ProfileStage)
    assert ProfileStage.execute is Stage.execute
    sims = [s for s in tracer.recorder.spans if s.name == "simulator.run"]
    assert all(s.attrs["instructions"] > 0 for s in sims)
