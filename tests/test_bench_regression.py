"""Unit tests for the CI bench-regression gate (no benchmarks run here).

The checker compares a fresh ``bench_tracer.py`` payload against the
committed baseline; these tests feed it synthetic payloads and the real
committed baseline file to pin the gating semantics: prediction-metric
and ray-count drift fail, and so does a frame retaining more than
``FRAME_BYTES_LIMIT`` times the baseline's bytes per entry; wall-clock
ratios only report.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    Path(__file__).parent.parent / "benchmarks" / "check_bench_regression.py",
)
checker = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checker)

BASELINE_PATH = checker.DEFAULT_BASELINE


@pytest.fixture()
def baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text())


def test_committed_baseline_exists_and_is_quick_mode(baseline):
    assert baseline["benchmark"] == "tracer_backends"
    assert baseline["quick"] is True
    assert baseline["scenes"], "baseline must cover at least one scene"
    assert baseline["predict"]["metrics"]


def test_baseline_vs_itself_passes(baseline):
    report = checker.compare(baseline, baseline)
    assert not report.failed
    assert not report.warned


def test_metric_drift_fails_even_when_fast(baseline):
    current = copy.deepcopy(baseline)
    current["predict"]["metrics"]["cycles"] += 1e-9
    current["predict"]["packet"]["seconds"] /= 10  # speed cannot buy it back
    report = checker.compare(current, baseline)
    assert report.failed
    assert any("metrics drifted" in line for line in report.lines)


def test_ray_count_drift_fails(baseline):
    current = copy.deepcopy(baseline)
    current["scenes"][0]["packet"]["rays"] += 1
    report = checker.compare(current, baseline)
    assert report.failed


def test_unknown_scene_only_warns(baseline):
    current = copy.deepcopy(baseline)
    extra = copy.deepcopy(current["scenes"][0])
    extra["scene"] = "NEWSCENE"
    current["scenes"].append(extra)
    report = checker.compare(current, baseline)
    assert not report.failed
    assert any("NEWSCENE" in line and "no baseline" in line
               for line in report.lines)


def test_build_vs_baseline_is_reported_and_never_gates(baseline):
    name = baseline["scenes"][0]["scene"]
    for factor, prefix in ((0.5, "PASS"), (4.0, "WARN")):
        current = copy.deepcopy(baseline)
        current["scenes"][0]["build_seconds"] *= factor
        report = checker.compare(current, baseline)
        assert not report.failed
        ratio = 1.0 / factor
        assert f"{prefix}  {name} build_vs_baseline: {ratio:.2f}x" in "\n".join(
            report.lines
        )


def test_scene_vs_baseline_is_reported_and_never_gates(baseline):
    name = baseline["scenes"][0]["scene"]
    baseline["scenes"][0].setdefault("scene_seconds", 0.05)
    for factor, prefix in ((0.5, "PASS"), (4.0, "WARN")):
        current = copy.deepcopy(baseline)
        current["scenes"][0]["scene_seconds"] *= factor
        report = checker.compare(current, baseline)
        assert not report.failed
        ratio = 1.0 / factor
        assert f"{prefix}  {name} scene_vs_baseline: {ratio:.2f}x" in "\n".join(
            report.lines
        )


def test_scene_vs_baseline_skipped_without_baseline_field(baseline):
    # Baselines written before scene_seconds existed: no line, no failure.
    current = copy.deepcopy(baseline)
    for entry in (*current["scenes"], *baseline["scenes"]):
        entry.pop("scene_seconds", None)
    current["scenes"][0]["scene_seconds"] = 0.05
    report = checker.compare(current, baseline)
    assert not report.failed
    assert not any("scene_vs_baseline" in line for line in report.lines)


def test_trace_vs_baseline_is_reported_and_never_gates(baseline):
    name = baseline["scenes"][0]["scene"]
    assert baseline["scenes"][0]["packet"]["trace_seconds"] > 0
    for factor, prefix in ((0.5, "PASS"), (4.0, "WARN")):
        current = copy.deepcopy(baseline)
        current["scenes"][0]["packet"]["trace_seconds"] *= factor
        report = checker.compare(current, baseline)
        assert not report.failed
        ratio = 1.0 / factor
        assert f"{prefix}  {name} trace_vs_baseline: {ratio:.2f}x" in "\n".join(
            report.lines
        )


@pytest.mark.parametrize(
    "factor, fails", [(0.5, False), (1.0, False), (1.25, False), (1.3, True), (7.0, True)]
)
def test_frame_bytes_above_limit_fails(baseline, factor, fails):
    name = baseline["scenes"][0]["scene"]
    base = baseline["scenes"][0]["frame_bytes_per_entry"]
    assert base > 0
    current = copy.deepcopy(baseline)
    current["scenes"][0]["frame_bytes_per_entry"] = base * factor
    report = checker.compare(current, baseline)
    assert report.failed is fails
    prefix = "FAIL" if fails else "PASS"
    assert f"{prefix}  {name}: frame retains {base * factor:.2f} B/entry" in (
        "\n".join(report.lines)
    )


@pytest.mark.parametrize(
    "factor, fails", [(0.5, False), (1.0, False), (1.25, False), (1.3, True), (3.0, True)]
)
def test_trace_peak_bytes_above_limit_fails(baseline, factor, fails):
    name = baseline["scenes"][0]["scene"]
    base = baseline["scenes"][0]["trace_peak_bytes_per_entry"]
    assert base > 0
    current = copy.deepcopy(baseline)
    current["scenes"][0]["trace_peak_bytes_per_entry"] = base * factor
    report = checker.compare(current, baseline)
    assert report.failed is fails
    prefix = "FAIL" if fails else "PASS"
    assert f"{prefix}  {name}: trace peaks at {base * factor:.2f} B/entry" in (
        "\n".join(report.lines)
    )


@pytest.fixture()
def sim_baseline() -> dict:
    return json.loads(checker.BASELINES_BY_KIND["cycle_sim"].read_text())


def test_sim_baseline_vs_itself_passes(sim_baseline):
    report = checker.compare_sim(sim_baseline, sim_baseline)
    assert not report.failed


def test_sim_serial_vs_baseline_is_reported_and_never_gates(sim_baseline):
    current = copy.deepcopy(sim_baseline)
    current["scenes"][0]["serial_vs_baseline"] = 1.6
    current["scenes"][1]["serial_vs_baseline"] = 0.5
    report = checker.compare_sim(current, sim_baseline)
    assert not report.failed
    name0, name1 = (e["scene"] for e in current["scenes"][:2])
    assert f"PASS  {name0} serial_vs_baseline: 1.60x (baseline 1.00x)" in (
        report.lines
    )
    assert any(
        line.startswith(f"WARN  {name1} serial_vs_baseline: 0.50x")
        for line in report.lines
    )


@pytest.mark.parametrize("field", ["cycles", "work_units"])
def test_sim_count_drift_fails(sim_baseline, field):
    baseline = copy.deepcopy(sim_baseline)
    baseline["scenes"][0]["serial"][field] += 1
    report = checker.compare_sim(sim_baseline, baseline)
    assert report.failed
    name = sim_baseline["scenes"][0]["scene"]
    assert any(
        line.startswith(f"FAIL  {name}/serial: {field}") for line in report.lines
    )
