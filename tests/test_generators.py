"""Tests for the parameterized workload generators."""

import subprocess
import sys

import pytest

from repro.scene.generators import clutter_scene, saturation_scene
from repro.tracer import FunctionalTracer, RenderSettings


class TestSaturationScene:
    def test_validation(self):
        with pytest.raises(ValueError):
            saturation_scene(-0.1)
        with pytest.raises(ValueError):
            saturation_scene(1.5)

    def test_level_scales_geometry(self):
        low = saturation_scene(0.0, seed=1)
        high = saturation_scene(1.0, seed=1)
        assert high.triangle_count() > 5 * low.triangle_count()

    def test_level_scales_path_depth(self):
        assert saturation_scene(0.0).max_bounces == 1
        assert saturation_scene(1.0).max_bounces == 4

    def test_level_scales_workload_cost(self):
        settings = RenderSettings(width=16, height=16)
        low = FunctionalTracer(saturation_scene(0.0, seed=2), settings)
        high = FunctionalTracer(saturation_scene(0.8, seed=2), settings)
        assert (
            high.trace_frame().total_cost() > 2 * low.trace_frame().total_cost()
        )

    def test_deterministic_per_seed(self):
        a = saturation_scene(0.5, seed=4)
        b = saturation_scene(0.5, seed=4)
        assert a.triangle_count() == b.triangle_count()

    def test_names_encode_level(self):
        assert saturation_scene(0.25).name == "SAT025"
        assert saturation_scene(1.0).name == "SAT100"


def _scene_digest(level: float, seed: int) -> str:
    """Geometry digest of a saturation scene, stable across processes."""
    import hashlib

    scene = saturation_scene(level, seed=seed)
    hasher = hashlib.sha256()
    hasher.update(f"{scene.name}|{scene.max_bounces}|".encode())
    for triangle in scene.triangles:
        for vertex in (triangle.v0, triangle.v1, triangle.v2):
            hasher.update(
                ",".join(f"{float(c):.12e}" for c in vertex).encode()
            )
        hasher.update(str(triangle.material_id).encode())
    return hasher.hexdigest()


_DIGEST_SNIPPET = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_generators import _scene_digest
print(_scene_digest({level!r}, {seed!r}))
"""


class TestSaturationDeterminism:
    """The generator boundary levels reproduce bit-identically anywhere.

    Campaign fingerprints assume a recipe spec rebuilds the same scene
    in any process (job processes and ``GroupExecutor`` workers rebuild
    from specs alone), so the geometry at the knob extremes must not
    depend on interpreter state, hash randomization, or set/dict
    iteration order.
    """

    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_boundary_levels_deterministic_across_processes(self, level):
        import os
        from pathlib import Path

        tests_dir = str(Path(__file__).resolve().parent)
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for run in range(2):
            # Different hash seeds per process: a digest that held only
            # under one PYTHONHASHSEED would pass a plain rerun.
            env = dict(os.environ, PYTHONHASHSEED=str(run + 1))
            out = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    _DIGEST_SNIPPET.format(
                        src=src_dir, tests=tests_dir, level=level, seed=9
                    ),
                ],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
        assert digests == {_scene_digest(level, 9)}


class TestKnobInterpolation:
    def test_monotone_in_t_for_every_knob(self):
        from repro.scene.animation import interpolate_knobs

        start = {"level": 0.1, "extra": 5.0}
        end = {"level": 0.9, "extra": 1.0}
        steps = [i / 10 for i in range(11)]
        series = [interpolate_knobs(start, end, t) for t in steps]
        levels = [s["level"] for s in series]
        extras = [s["extra"] for s in series]
        # level rises toward 0.9; extra falls toward 1.0 — each strictly
        # monotone because every value is a convex combination.
        assert levels == sorted(levels)
        assert extras == sorted(extras, reverse=True)
        assert series[0] == start
        assert series[-1] == end

    def test_knobs_absent_from_end_hold_steady(self):
        from repro.scene.animation import interpolate_knobs

        mid = interpolate_knobs({"level": 0.4, "other": 2.0}, {"level": 0.8}, 0.5)
        assert mid == {"level": 0.6000000000000001, "other": 2.0}


class TestRecipeKnobValidation:
    def test_out_of_range_error_names_knob_and_range(self):
        from repro.scene.registry import validate_recipe_knobs

        with pytest.raises(ValueError) as excinfo:
            validate_recipe_knobs("saturation", {"level": 2.0})
        message = str(excinfo.value)
        assert "'level'" in message
        assert "[0, 1]" in message
        assert "2" in message

    def test_unknown_knob_error_lists_known_knobs(self):
        from repro.scene.registry import validate_recipe_knobs

        with pytest.raises(ValueError) as excinfo:
            validate_recipe_knobs("clutter", {"triangle_target": 100})
        message = str(excinfo.value)
        assert "'triangle_target'" in message
        assert "reflective_share" in message and "triangles_target" in message

    def test_defaults_fill_and_integer_knobs_round(self):
        from repro.scene.registry import validate_recipe_knobs

        resolved = validate_recipe_knobs(
            "clutter", {"triangles_target": 1500.6}
        )
        assert resolved["triangles_target"] == 1501.0
        assert resolved["reflective_share"] == 0.2


class TestClutterScene:
    def test_validation(self):
        with pytest.raises(ValueError):
            clutter_scene(0)
        with pytest.raises(ValueError):
            clutter_scene(1000, reflective_share=2.0)

    def test_triangle_count_near_target(self):
        for target in (1000, 4000, 8000):
            scene = clutter_scene(target, seed=5)
            assert 0.5 * target <= scene.triangle_count() <= 1.6 * target

    def test_reflective_share_adds_mirrors(self):
        shiny = clutter_scene(3000, seed=6, reflective_share=1.0)
        matte = clutter_scene(3000, seed=6, reflective_share=0.0)
        # All-reflective: some triangles use a mirror material.
        assert any(
            shiny.materials[t.material_id].reflectivity > 0
            for t in shiny.triangles
        )
        # No-reflective: none do.
        assert all(
            matte.materials[t.material_id].reflectivity == 0
            for t in matte.triangles
        )

    def test_renders(self):
        scene = clutter_scene(1500, seed=7)
        settings = RenderSettings(width=8, height=8)
        frame = FunctionalTracer(scene, settings).trace_frame()
        assert frame.total_cost() > 0
