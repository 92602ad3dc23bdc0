"""Extrapolating per-group predictions (Zatel step 6, Sections III-G, IV-F).

Zatel's default is **linear extrapolation**: absolute metrics (simulation
cycles) are divided by the traced fraction ("after tracing 10% of pixels
... 100,000 / 0.1 = 1,000,000 simulation cycles"); rate metrics (miss
rates, efficiencies) and the self-normalizing IPC pass through unchanged.

Section IV-F evaluates an **exponential regression** alternative: simulate
the group at three fractions, fit a saturating exponential per metric and
read it out at 100%.  The paper finds it is *not* clearly better — a result
benchmarks/bench_fig20_regression.py reproduces.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ..gpu.stats import EXTENDED_METRICS, METRICS, SimulationStats
from ..gpu.telemetry import KIND_ABSOLUTE, METRIC_REGISTRY

__all__ = [
    "linear_extrapolate",
    "exponential_regression",
    "fit_power_law",
    "power_law",
]


def linear_extrapolate(stats: SimulationStats, fraction: float) -> dict[str, float]:
    """Scale one group's metrics from ``fraction`` of pixels to 100%.

    ``ABSOLUTE`` metrics divide by the fraction; ``RATE`` and
    ``THROUGHPUT`` metrics pass through (IPC's numerator and denominator
    scale together, which is precisely why it inherits the paper's
    systematic under-estimation when cycles do not shrink linearly).

    Raises:
        ValueError: for a fraction outside (0, 1].
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"traced fraction must be in (0, 1], got {fraction}")
    predicted: dict[str, float] = {}
    for name in METRICS + EXTENDED_METRICS:
        value = stats.metric(name)
        if METRIC_REGISTRY[name].kind == KIND_ABSOLUTE:
            value = value / fraction
        predicted[name] = value
    return predicted


def _saturating_exponential(x: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """Model ``y = a + b * exp(-c * x)``: error decays as more is traced."""
    return a + b * np.exp(-c * x)


def exponential_regression(
    samples: list[tuple[float, dict[str, float]]],
) -> dict[str, float]:
    """Fit per-metric exponentials over (fraction, metrics) samples.

    ``samples`` holds the *linearly extrapolated* metrics at each simulated
    fraction (the paper feeds three runs at 20/30/40%).  Each metric is fit
    with ``y = a + b * exp(-c * frac)`` and evaluated at ``frac = 1``.
    Falls back to the largest-fraction sample when the fit fails (e.g.
    degenerate/collinear points), mirroring how a practitioner would
    degrade gracefully.

    Raises:
        ValueError: with fewer than three samples (the model has three
            parameters).
    """
    if len(samples) < 3:
        raise ValueError("exponential regression needs at least three samples")
    # Imported here: SciPy costs ~0.5 s and ~40 MB at start-up, and a
    # default (linear) prediction never fits a curve.
    from scipy.optimize import OptimizeWarning, curve_fit

    fractions = np.array([f for f, _ in samples], dtype=np.float64)
    fallback = max(samples, key=lambda s: s[0])[1]
    predicted: dict[str, float] = {}
    # Tolerate Table-I-only sample dicts; extended metrics are fit only
    # when every sample carries them.
    names = [
        name
        for name in METRICS + EXTENDED_METRICS
        if all(name in metrics for _, metrics in samples)
    ]
    for name in names:
        y = np.array([m[name] for _, m in samples], dtype=np.float64)
        try:
            with warnings.catch_warnings():
                # Three points determine three parameters exactly, so the
                # covariance is undefined; that is expected, not a failure.
                warnings.simplefilter("ignore", OptimizeWarning)
                params, _ = curve_fit(
                    _saturating_exponential,
                    fractions,
                    y,
                    p0=(float(y[-1]), float(y[0] - y[-1]), 1.0),
                    maxfev=5000,
                )
            value = float(_saturating_exponential(np.array([1.0]), *params)[0])
        except (RuntimeError, TypeError):
            value = float(fallback[name])
        if not math.isfinite(value):
            value = float(fallback[name])
        predicted[name] = value
    return predicted


def power_law(perc: np.ndarray, a: float, b: float) -> np.ndarray:
    """The paper's speedup model shape: ``speedup = a * perc ** b``."""
    return a * np.power(perc, b)


def fit_power_law(
    percentages: np.ndarray, speedups: np.ndarray
) -> tuple[float, float]:
    """Fit equation (4)'s power law by log-log least squares.

    The paper derives ``speedup(perc) = 181 * perc**-1.15`` from its
    measurements; this fits the same two-parameter model to ours so the
    benchmark can report both curves side by side.

    Raises:
        ValueError: for fewer than two points or non-positive data.
    """
    percentages = np.asarray(percentages, dtype=np.float64)
    speedups = np.asarray(speedups, dtype=np.float64)
    if percentages.size < 2:
        raise ValueError("power-law fit needs at least two points")
    if np.any(percentages <= 0) or np.any(speedups <= 0):
        raise ValueError("power-law fit needs positive percentages and speedups")
    slope, intercept = np.polyfit(np.log(percentages), np.log(speedups), 1)
    return float(np.exp(intercept)), float(slope)
