"""K-Means quantization pinned to a committed fixture and a reference.

``tests/data/quantize_golden.json`` holds, per run, a SHA-256 of the
palette, labels and coolness ``quantize_heatmap`` makes for a library
scene's heatmap: the 8 library scenes at 24x24 and 64x64 with k 4 and 8,
plus SPRNG at 128x128.  Every traced fraction and selection weight
derives from these three arrays, so they must stay identical bit for bit.

``reference_kmeans`` keeps the plain implementation (assignment over every
point) that the distinct-color assignment replaced; a property test holds
the two byte-identical on point sets with heavy duplication.

Regenerating (only after an *intentional* change to the quantization)::

    PYTHONPATH=src python tests/data/regen_quantize_golden.py
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantize import kmeans

DATA = Path(__file__).parent / "data"
FIXTURE = json.loads((DATA / "quantize_golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "regen_quantize_golden", DATA / "regen_quantize_golden.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def reference_kmeans(points, k, seed=0, max_iterations=50):
    """K-Means with the assignment step over every point (the reference)."""
    n = points.shape[0]
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    closest_sq = np.sum((points - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            centroids[i:] = centroids[0]
            break
        probabilities = closest_sq / total
        centroids[i] = points[rng.choice(n, p=probabilities)]
        dist = np.sum((points - centroids[i]) ** 2, axis=1)
        np.minimum(closest_sq, dist, out=closest_sq)
    labels = np.zeros(n, dtype=np.int64)
    for iteration in range(max_iterations):
        distances = np.sum(
            (points[:, None, :] - centroids[None, :, :]) ** 2, axis=2
        )
        new_labels = np.argmin(distances, axis=1)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if members.shape[0] > 0:
                centroids[c] = members.mean(axis=0)
    return centroids, labels


def test_fixture_matches_run_plan():
    assert set(FIXTURE["runs"]) == set(regen.RUNS)


@pytest.mark.parametrize("run_id", sorted(regen.RUNS))
def test_quantize_reproduces_fixture(run_id):
    assert regen.build(run_id) == FIXTURE["runs"][run_id]


def assert_same_as_reference(points, k, seed):
    centroids, labels = kmeans(points, k, seed=seed)
    ref_centroids, ref_labels = reference_kmeans(points, k, seed=seed)
    assert centroids.dtype == ref_centroids.dtype
    assert labels.dtype == ref_labels.dtype
    assert centroids.tobytes() == ref_centroids.tobytes()
    assert labels.tobytes() == ref_labels.tobytes()


# A small palette of rows (including a -0.0/0.0 pair) drawn with heavy
# repetition, so most points share their color with many others.
_ROWS = st.lists(
    st.tuples(*[st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1e-9, 3.0])] * 3),
    min_size=1,
    max_size=6,
    unique=True,
)


@settings(max_examples=80, deadline=None)
@given(
    palette=_ROWS,
    picks=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200),
    k=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=3),
)
def test_matches_reference_on_duplicated_points(palette, picks, k, seed):
    points = np.array([palette[i % len(palette)] for i in picks], dtype=np.float64)
    assert_same_as_reference(points, k, seed)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=3),
)
def test_single_repeated_point(n, k, seed):
    assert_same_as_reference(np.full((n, 3), 0.7), k, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_k_at_least_distinct_points(seed):
    points = np.repeat(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-0.0, 0.0, 1.0]]), 7, axis=0)
    for k in (2, 3, 4, 8, 30):
        assert_same_as_reference(points, k, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_continuous_points_match_reference(seed):
    points = np.random.default_rng(seed).random((300, 3))
    assert_same_as_reference(points, 8, seed)
