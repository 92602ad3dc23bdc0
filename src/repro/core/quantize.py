"""Color quantization of heatmaps via K-Means (Zatel step 2).

The paper quantizes the heatmap's colors with K-Means "to merge similar
colors and create distinct groups, eliminating noise" (Fig. 4).  Each
resulting quantized color carries a *coolness* value ``c_i`` in [0, 1]
(0 = hot, 1 = cold) recovered from its position on the heat gradient —
the quantity driving equation (1)'s pixel-budget and equations (2)-(3)'s
temperature-weighted distributions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .heatmap import Heatmap, color_to_temperature, temperatures_to_colors

__all__ = ["QuantizedHeatmap", "quantize_heatmap", "kmeans"]


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    max_iterations: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain K-Means clustering (k-means++ seeding, Lloyd iterations).

    Args:
        points: ``(N, D)`` float array.
        k: cluster count; clamped to ``N`` if larger.
        seed: RNG seed for deterministic experiments.
        max_iterations: Lloyd iteration cap (converges much earlier for
            heatmap palettes).

    Returns:
        ``(centroids, labels)``: ``(k, D)`` centroids and ``(N,)`` integer
        labels.

    Raises:
        ValueError: for an empty point set or non-positive ``k``.
    """
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("kmeans needs a non-empty (N, D) point array")
    if k <= 0:
        raise ValueError("cluster count must be positive")
    n = points.shape[0]
    k = min(k, n)
    rng = np.random.default_rng(seed)

    # k-means++ seeding: spread initial centroids by squared distance.
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # All points coincide with chosen centroids; duplicate one.
            centroids[i:] = centroids[0]
            break
        probabilities = closest_sq / total
        centroids[i] = points[rng.choice(n, p=probabilities)]
        dist = np.sum((points - centroids[i]) ** 2, axis=1)
        np.minimum(closest_sq, dist, out=closest_sq)

    # A heatmap's colors lie on a 1-D gradient with few distinct values, so
    # the assignment runs once per distinct point (equal bytes) and is
    # scattered back: a point's distances depend only on its own
    # coordinates, so the labels are exactly the per-point ones.  Seeding
    # and the update step keep the full point set, and with it their RNG
    # draws and summation order.
    rows = np.ascontiguousarray(points)
    row_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(
        row_bytes.reshape(-1), return_index=True, return_inverse=True
    )
    distinct = points[first]
    distinct_labels = np.zeros(distinct.shape[0], dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    for iteration in range(max_iterations):
        # Assignment step (vectorized distance matrix M x k, M distinct).
        distances = np.sum(
            (distinct[:, None, :] - centroids[None, :, :]) ** 2, axis=2
        )
        new_labels = np.argmin(distances, axis=1)
        if iteration == 0:
            changed = range(k)
        else:
            moved = new_labels != distinct_labels
            if not moved.any():
                break
            # A cluster no point entered or left keeps the same members in
            # the same order, and so the same mean.
            changed = np.union1d(distinct_labels[moved], new_labels[moved])
        distinct_labels = new_labels
        labels = new_labels[inverse]
        # Update step; empty clusters keep their previous centroid.
        for c in changed:
            members = points[labels == c]
            if members.shape[0] > 0:
                centroids[c] = members.mean(axis=0)
    return centroids, labels


@dataclass
class QuantizedHeatmap:
    """A heatmap reduced to ``k`` quantized colors.

    Attributes:
        labels: ``(H, W)`` cluster index per pixel.
        palette: ``(k, 3)`` RGB centroid per cluster.
        coolness: ``(k,)`` per-cluster ``c_i`` in [0, 1] (1 = coldest),
            recovered by inverting the heat gradient at each centroid.
        heatmap: the source heatmap (kept for block statistics).
    """

    labels: np.ndarray
    palette: np.ndarray
    coolness: np.ndarray
    heatmap: Heatmap

    @property
    def num_colors(self) -> int:
        return int(self.palette.shape[0])

    def label_at(self, px: int, py: int) -> int:
        """Quantized color index of pixel ``(px, py)``."""
        return int(self.labels[py, px])

    def coolness_at(self, px: int, py: int) -> float:
        """Coolness ``c_i`` of the pixel's quantized color."""
        return float(self.coolness[self.label_at(px, py)])

    def warmth(self) -> np.ndarray:
        """Per-cluster warmth ``c'_j = 1 - c_j`` (equations (2)-(3))."""
        return 1.0 - self.coolness

    def labels_of(self, pixels: list[tuple[int, int]]) -> np.ndarray:
        """Quantized color index of each ``(px, py)`` in ``pixels``, in order."""
        flat = np.fromiter(
            itertools.chain.from_iterable(pixels), dtype=np.intp, count=2 * len(pixels)
        )
        return self.labels[flat[1::2], flat[0::2]]

    def color_histogram(
        self, pixels: list[tuple[int, int]] | None = None
    ) -> np.ndarray:
        """Pixel count per quantized color, optionally over a subset."""
        labels = self.labels.reshape(-1) if pixels is None else self.labels_of(pixels)
        return np.bincount(labels, minlength=self.num_colors).astype(np.int64, copy=False)

    def to_colors(self) -> np.ndarray:
        """Render the quantized map to an ``(H, W, 3)`` RGB image."""
        return self.palette[self.labels]


def quantize_heatmap(
    heatmap: Heatmap, num_colors: int = 8, seed: int = 0
) -> QuantizedHeatmap:
    """Quantize a heatmap's colors with K-Means (Zatel step 2).

    The clustering runs in gradient-color space (as the paper does) rather
    than on scalar temperatures, then each centroid's coolness is recovered
    by projecting it back onto the gradient.
    """
    h, w = heatmap.temperatures.shape
    colors = temperatures_to_colors(heatmap.temperatures.reshape(-1))
    palette, labels = kmeans(colors, num_colors, seed=seed)
    coolness = np.array(
        [1.0 - color_to_temperature(c) for c in palette], dtype=np.float64
    )
    return QuantizedHeatmap(
        labels=labels.reshape(h, w),
        palette=palette,
        coolness=coolness,
        heatmap=heatmap,
    )
