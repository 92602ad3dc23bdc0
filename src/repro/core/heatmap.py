"""Execution-time heatmaps (Zatel step 1).

The heatmap is Zatel's profiling input: per-pixel runtime, normalized by the
longest runtime, then mapped onto NVIDIA's heat gradient where *warmer
colors indicate lengthier ray trace times* (Section III-B).  The paper
profiles on a hardware GPU; here the functional tracer's per-pixel cost is
the runtime proxy (the paper notes both options "yield comparable results").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tracer.trace import FrameTrace

__all__ = [
    "HEAT_GRADIENT",
    "Heatmap",
    "temperature_to_color",
    "temperatures_to_colors",
    "color_to_temperature",
]

#: NVIDIA-style heat gradient stops: position in [0, 1] -> RGB in [0, 1].
#: 0 is coldest (dark blue), 1 is hottest (red), matching the DXR shader
#: profiling gradient the paper references.
HEAT_GRADIENT: tuple[tuple[float, tuple[float, float, float]], ...] = (
    (0.00, (0.00, 0.00, 0.45)),  # dark blue
    (0.25, (0.00, 0.35, 1.00)),  # blue
    (0.50, (0.00, 0.85, 0.35)),  # green
    (0.75, (1.00, 0.90, 0.00)),  # yellow
    (1.00, (1.00, 0.10, 0.00)),  # red
)


def temperature_to_color(t: float) -> np.ndarray:
    """Map a normalized temperature in [0, 1] to a gradient RGB color."""
    t = min(1.0, max(0.0, float(t)))
    for (p0, c0), (p1, c1) in zip(HEAT_GRADIENT, HEAT_GRADIENT[1:]):
        if t <= p1:
            f = 0.0 if p1 == p0 else (t - p0) / (p1 - p0)
            return np.array(c0) + f * (np.array(c1) - np.array(c0))
    return np.array(HEAT_GRADIENT[-1][1])


_STOPS = np.array([p for p, _ in HEAT_GRADIENT], dtype=np.float64)
_STOP_COLORS = np.array([c for _, c in HEAT_GRADIENT], dtype=np.float64)


def temperatures_to_colors(temperatures: np.ndarray) -> np.ndarray:
    """Vectorized :func:`temperature_to_color`: shape ``S`` -> ``S + (3,)``.

    Bit-equal to the scalar mapping: the same clamp (NaN -> 0), the same
    segment (the first whose upper stop is ``>= t``) and the same
    arithmetic, one array operation at a time.
    """
    t = np.asarray(temperatures, dtype=np.float64)
    t = np.where(t > 0.0, np.minimum(t, 1.0), 0.0)
    segment = np.searchsorted(_STOPS[1:], t, side="left")
    p0 = _STOPS[segment]
    f = (t - p0) / (_STOPS[segment + 1] - p0)
    c0 = _STOP_COLORS[segment]
    return c0 + f[..., None] * (_STOP_COLORS[segment + 1] - c0)


def color_to_temperature(rgb: np.ndarray) -> float:
    """Invert the gradient: nearest position on the gradient polyline.

    This is the paper's "shifted hue parameter" extraction — recovering how
    warm a (possibly quantized) color is.  Works for any RGB; off-gradient
    colors project to the closest segment.
    """
    best_t = 0.0
    best_d = float("inf")
    rgb = np.asarray(rgb, dtype=np.float64)
    for (p0, c0), (p1, c1) in zip(HEAT_GRADIENT, HEAT_GRADIENT[1:]):
        a = np.array(c0)
        b = np.array(c1)
        ab = b - a
        denom = float(ab @ ab)
        f = 0.0 if denom == 0.0 else float(np.clip((rgb - a) @ ab / denom, 0.0, 1.0))
        point = a + f * ab
        d = float(np.sum((rgb - point) ** 2))
        if d < best_d:
            best_d = d
            best_t = p0 + f * (p1 - p0)
    return best_t


@dataclass
class Heatmap:
    """A normalized execution-time heatmap over the image plane.

    ``temperatures`` is an ``(H, W)`` array in [0, 1] (1 = the slowest
    pixel).  Raw per-pixel costs are retained for tooling.
    """

    temperatures: np.ndarray
    raw_costs: np.ndarray

    @classmethod
    def from_frame(
        cls,
        frame: FrameTrace,
        percentile: float = 99.5,
        warp_width: int = 32,
    ) -> "Heatmap":
        """Profile a traced frame into a heatmap (Zatel step 1).

        Two departures from naive per-pixel cost, both reflecting how the
        paper's *hardware* profiling behaves:

        * **warp flattening** — a GPU executes 32 pixels in SIMT lock-step,
          so a cheap pixel measured with timer instrumentation inherits its
          warp's runtime.  Each aligned ``warp_width x 1`` run therefore
          takes the maximum cost of its pixels (``warp_width=0`` disables).
        * **percentile normalization** — the paper divides by the longest
          runtime; our functional cost proxy has a heavier stochastic
          outlier tail, so the default divides by the ``percentile``-th
          cost and clamps the top stragglers to 1.0.

        Raises:
            ValueError: if the frame has no traced pixels or zero cost.
        """
        if not frame.pixels:
            raise ValueError("cannot build a heatmap from an empty frame trace")
        costs = frame.cost_map()
        flattened = costs
        if warp_width > 1:
            flattened = costs.copy()
            height, width = costs.shape
            for base in range(0, width, warp_width):
                run = flattened[:, base : base + warp_width]
                run[:] = run.max(axis=1, keepdims=True)
        peak = float(np.percentile(flattened[flattened > 0], percentile))
        if peak <= 0.0:
            raise ValueError("frame trace has zero total cost")
        return cls(
            temperatures=np.clip(flattened / peak, 0.0, 1.0), raw_costs=costs
        )

    @property
    def height(self) -> int:
        return int(self.temperatures.shape[0])

    @property
    def width(self) -> int:
        return int(self.temperatures.shape[1])

    def temperature_at(self, px: int, py: int) -> float:
        """Normalized temperature of pixel ``(px, py)``."""
        return float(self.temperatures[py, px])

    def to_colors(self) -> np.ndarray:
        """Render the heatmap to an ``(H, W, 3)`` RGB image in [0, 1]."""
        return temperatures_to_colors(self.temperatures)

    def mean_temperature(self) -> float:
        """Average normalized temperature (how warm the scene is overall)."""
        return float(self.temperatures.mean())
