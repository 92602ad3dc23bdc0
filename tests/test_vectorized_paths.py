"""Bit-equality of the vectorized heatmap paths with their scalar forms.

The gradient mapping feeds K-Means and equation (1)'s fraction feeds
pixel selection, so both must match the per-pixel definitions exactly —
not approximately — or the golden predict metrics would drift.
"""

import numpy as np
import pytest

from repro.core.heatmap import (
    HEAT_GRADIENT,
    Heatmap,
    temperature_to_color,
    temperatures_to_colors,
)
from repro.core.partition import partition_plane
from repro.core.quantize import quantize_heatmap
from repro.core.selection import compute_fraction
from repro.scene.library import make_scene
from repro.tracer import FunctionalTracer, RenderSettings


def _scalar_colors(temperatures) -> np.ndarray:
    flat = np.asarray(temperatures, dtype=np.float64).reshape(-1)
    return np.array([temperature_to_color(float(t)) for t in flat]).reshape(
        np.shape(temperatures) + (3,)
    )


def _assert_bit_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestGradientMapping:
    def test_stops_pick_the_scalar_segment(self):
        stops = np.array([p for p, _ in HEAT_GRADIENT])
        assert stops.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        _assert_bit_equal(temperatures_to_colors(stops), _scalar_colors(stops))
        # Either side of each interior stop as well.
        near = np.concatenate(
            [np.nextafter(stops, -np.inf), np.nextafter(stops, np.inf)]
        )
        _assert_bit_equal(temperatures_to_colors(near), _scalar_colors(near))

    def test_out_of_range_values_clamp_like_the_scalar(self):
        values = np.array(
            [-1e9, -1.0, -1e-12, -0.0, 1.0 + 1e-12, 1.5, 1e9, np.inf, -np.inf, np.nan]
        )
        _assert_bit_equal(temperatures_to_colors(values), _scalar_colors(values))

    def test_seeded_random_temperatures(self):
        values = np.random.default_rng(2024).random(100_000)
        _assert_bit_equal(temperatures_to_colors(values), _scalar_colors(values))

    def test_preserves_the_input_shape(self):
        values = np.random.default_rng(7).random((5, 9))
        _assert_bit_equal(temperatures_to_colors(values), _scalar_colors(values))

    def test_heatmap_to_colors(self):
        temperatures = np.random.default_rng(3).random((6, 10))
        heatmap = Heatmap(temperatures=temperatures, raw_costs=temperatures)
        _assert_bit_equal(heatmap.to_colors(), _scalar_colors(temperatures))


def _reference_fraction(quantized, pixels, lo, hi) -> float:
    total = 0.0
    for px, py in pixels:
        total += quantized.coolness[quantized.labels[py, px]]
    return min(hi, max(lo, total / len(pixels)))


@pytest.fixture(scope="module", params=["SPRNG", "BUNNY", "SPNZA"])
def quantized(request):
    frame = FunctionalTracer(
        make_scene(request.param),
        RenderSettings(width=48, height=48, samples_per_pixel=1, seed=0),
    ).trace_frame()
    return quantize_heatmap(Heatmap.from_frame(frame), num_colors=8, seed=0)


class TestComputeFraction:
    @pytest.mark.parametrize("method", ["fine", "coarse"])
    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_equals_left_to_right_loop(self, quantized, method, k):
        groups = partition_plane(48, 48, k, method=method)
        for pixels in groups:
            for lo, hi in ((0.3, 0.6), (0.0, 1.0)):
                fraction = compute_fraction(quantized, pixels, lo, hi)
                assert type(fraction) is float
                assert fraction == _reference_fraction(quantized, pixels, lo, hi)

    def test_shuffled_pixel_order(self, quantized):
        pixels = [(x, y) for y in range(48) for x in range(48)]
        order = np.random.default_rng(11).permutation(len(pixels))
        shuffled = [pixels[i] for i in order]
        assert compute_fraction(quantized, shuffled, 0.0, 1.0) == _reference_fraction(
            quantized, shuffled, 0.0, 1.0
        )

    def test_color_histogram_counts_each_pixel(self, quantized):
        pixels = [(x, y) for y in range(0, 48, 3) for x in range(5, 40)]
        expected = np.zeros(quantized.num_colors, dtype=np.int64)
        for px, py in pixels:
            expected[quantized.labels[py, px]] += 1
        _assert_bit_equal(quantized.color_histogram(pixels), expected)
        _assert_bit_equal(
            quantized.color_histogram(),
            np.bincount(quantized.labels.reshape(-1), minlength=quantized.num_colors),
        )
