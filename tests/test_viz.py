"""Tests for the visualization helpers (PPM I/O and ASCII charts)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import bar_chart, line_chart, read_ppm, sparkline, write_ppm


class TestPPM:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.uniform(size=(5, 7, 3))
        path = write_ppm(tmp_path / "x.ppm", image)
        back = read_ppm(path)
        assert back.shape == image.shape
        assert np.abs(back - image).max() <= 1.0 / 255.0 + 1e-9

    def test_clipping(self, tmp_path):
        image = np.array([[[2.0, -1.0, 0.5]]])
        back = read_ppm(write_ppm(tmp_path / "clip.ppm", image))
        assert back[0, 0, 0] == 1.0
        assert back[0, 0, 1] == 0.0

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "bad.ppm", np.zeros((4, 4)))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3 1 1 255\n000")
        with pytest.raises(ValueError):
            read_ppm(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6 2 2 255\nxxx")
        with pytest.raises(ValueError):
            read_ppm(path)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
    def test_property_roundtrip_any_size(self, tmp_path_factory, w, h):
        tmp = tmp_path_factory.mktemp("ppm")
        image = np.linspace(0, 1, w * h * 3).reshape(h, w, 3)
        back = read_ppm(write_ppm(tmp / "img.ppm", image))
        assert back.shape == (h, w, 3)


class TestSparkline:
    def test_monotone_values(self):
        line = sparkline([1, 2, 3, 4])
        assert len(line) == 4
        assert line[0] != line[-1]

    def test_empty_and_nan(self):
        assert sparkline([]) == ""
        assert "?" in sparkline([1.0, float("nan"), 2.0])

    def test_constant_series(self):
        line = sparkline([5, 5, 5])
        assert len(set(line)) == 1


class TestBarChart:
    def test_basic_render(self):
        chart = bar_chart(["a", "bb"], [1.0, 2.0], width=10, title="T")
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert lines[2].count("#") > lines[1].count("#")

    def test_alignment_and_values(self):
        chart = bar_chart(["x", "y"], [3.0, 1.5], unit="s")
        assert "3s" in chart and "1.5s" in chart

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_zero_and_inf(self):
        chart = bar_chart(["z", "i"], [0.0, float("inf")])
        assert "inf" in chart


class TestLineChart:
    def test_renders_all_series_markers(self):
        chart = line_chart(
            [1, 2, 3],
            {"alpha": [1, 2, 3], "beta": [3, 2, 1]},
            height=6,
            width=20,
        )
        assert "a" in chart and "b" in chart
        assert "a=alpha" in chart

    def test_series_sharing_a_first_letter_get_distinct_markers(self):
        chart = line_chart(
            [1, 2, 3],
            {"SPRNG": [1, 2, 3], "BUNNY": [3, 2, 1], "BATH": [2, 2, 2]},
            height=6,
            width=20,
        )
        legend = chart.splitlines()[-1].split()
        assert legend == ["S=SPRNG", "B=BUNNY", "A=BATH"]
        assert "A" in "".join(chart.splitlines()[:-3])

    def test_log_scale_handles_decay(self):
        xs = [10, 20, 40, 80]
        ys = [1000.0, 100.0, 10.0, 1.0]
        chart = line_chart(xs, {"err": ys}, log_y=True)
        assert "1e+03" in chart or "1000" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart([], {})
        with pytest.raises(ValueError):
            line_chart([1, 2], {"s": [1.0]})

    def test_constant_series_no_crash(self):
        chart = line_chart([1, 2], {"flat": [5.0, 5.0]})
        assert "f" in chart
