"""Golden end-to-end predict metrics over the full scene library.

``tests/data/golden_predict.json`` pins the Zatel pipeline's predicted
metrics (Table I + extended) for every library scene, captured from the
pre-telemetry-refactor code.  Every value must match with exact ``==`` —
the telemetry bus is observability, and the refactor of the stat classes,
combine, and extrapolation layers is behaviour-preserving by contract
(the PR 2 golden pattern).

Regenerating (only after an *intentional* model change)::

    PYTHONPATH=src python tests/data/regen_golden_predict.py
"""

import json
from pathlib import Path

import pytest

from repro.core.pipeline import Zatel
from repro.gpu.config import MOBILE_SOC
from repro.scene.library import SCENE_NAMES, make_scene
from repro.tracer.tracer import FunctionalTracer, RenderSettings

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_predict.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_all_scenes():
    assert set(GOLDEN["metrics"]) == set(SCENE_NAMES)


@pytest.mark.parametrize("scene_name", SCENE_NAMES)
def test_predict_metrics_byte_identical(scene_name):
    meta = GOLDEN["meta"]
    scene = make_scene(scene_name)
    frame = FunctionalTracer(
        scene,
        RenderSettings(
            width=meta["size"],
            height=meta["size"],
            samples_per_pixel=meta["spp"],
            seed=meta["seed"],
        ),
    ).trace_frame()
    result = Zatel(MOBILE_SOC).predict(scene, frame)
    expected = GOLDEN["metrics"][scene_name]
    for name, value in expected.items():
        assert result.metrics[name] == value, (
            f"{scene_name}.{name} drifted: {result.metrics[name]!r} != "
            f"golden {value!r}"
        )
    # The golden file must cover every reported metric, so new drift
    # can't hide in an unpinned column.
    assert set(expected) == set(result.metrics)
