"""Rendered images pinned to a committed fixture.

``tests/data/render_golden.json`` holds, per run, the SHA-256 of
``FunctionalTracer.render_image()``'s float64 bytes: the 8 library
scenes at 12x12 with 2 samples per pixel and seed 5, plus one
single-sample run.  ``render_image`` is the one path that computes
radiance (records off), so the trace fixtures do not cover it.  The
values were recorded with the scalar reference tracer.

Regenerating (only after an *intentional* tracer-model change)::

    PYTHONPATH=src python tests/data/regen_render_golden.py
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.scene.library import SCENE_NAMES

DATA = Path(__file__).parent / "data"
FIXTURE = json.loads((DATA / "render_golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "regen_render_golden", DATA / "regen_render_golden.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_fixture_matches_run_plan():
    assert set(FIXTURE["runs"]) == set(regen.RUNS)
    assert {scene for scene, _, spp, _ in regen.RUNS.values() if spp == 2} == set(
        SCENE_NAMES
    )
    assert any(spp == 1 for _, _, spp, _ in regen.RUNS.values())


@pytest.mark.parametrize("run_id", sorted(regen.RUNS))
def test_render_image_reproduces_fixture(run_id):
    image = regen.render(run_id)
    _, size, _, _ = regen.RUNS[run_id]
    assert image.shape == (size, size, 3)
    assert image.dtype == np.float64
    assert regen.image_sha256(image) == FIXTURE["runs"][run_id]
