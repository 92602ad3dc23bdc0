"""Tests for extrapolation (step 6 / §IV-F) and combination (step 7)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    combine_group_metrics,
    exponential_regression,
    fit_power_law,
    linear_extrapolate,
    power_law,
)
from repro.gpu import METRICS, SimulationStats


def stats_with(cycles=1000.0, instructions=5000):
    return SimulationStats(
        cycles=cycles,
        instructions=instructions,
        l1d_accesses=100,
        l1d_misses=10,
        l2_accesses=50,
        l2_misses=20,
        rt_traversal_steps=40,
        rt_active_ray_steps=400,
        dram_requests=5,
        dram_data_cycles=40.0,
        dram_pending_cycles=200.0,
        dram_channels=4,
    )


class TestLinearExtrapolation:
    def test_cycles_scale_inverse_to_fraction(self):
        predicted = linear_extrapolate(stats_with(), 0.1)
        # The paper's worked example: 100,000 cycles at 10% -> 1,000,000.
        assert predicted["cycles"] == pytest.approx(10_000.0)

    def test_rates_pass_through(self):
        stats = stats_with()
        predicted = linear_extrapolate(stats, 0.25)
        assert predicted["l1d_miss_rate"] == stats.l1d_miss_rate
        assert predicted["l2_miss_rate"] == stats.l2_miss_rate
        assert predicted["rt_efficiency"] == stats.rt_efficiency

    def test_ipc_self_normalizing(self):
        stats = stats_with()
        predicted = linear_extrapolate(stats, 0.5)
        assert predicted["ipc"] == pytest.approx(stats.ipc)

    def test_identity_at_full_fraction(self):
        stats = stats_with()
        predicted = linear_extrapolate(stats, 1.0)
        for name in METRICS:
            assert predicted[name] == pytest.approx(stats.metric(name))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            linear_extrapolate(stats_with(), 0.0)
        with pytest.raises(ValueError):
            linear_extrapolate(stats_with(), 1.2)

    @given(st.floats(min_value=0.01, max_value=1.0))
    def test_property_all_metrics_finite(self, fraction):
        predicted = linear_extrapolate(stats_with(), fraction)
        assert all(np.isfinite(v) for v in predicted.values())


class TestExponentialRegression:
    def metrics_at(self, fraction, true_value=1000.0, bias=500.0, decay=4.0):
        """Synthetic metric converging exponentially to true_value."""
        value = true_value + bias * np.exp(-decay * fraction)
        return {name: value for name in METRICS}

    def test_recovers_saturating_trend(self):
        samples = [
            (f, self.metrics_at(f)) for f in (0.2, 0.3, 0.4)
        ]
        predicted = exponential_regression(samples)
        truth = self.metrics_at(1.0)["cycles"]
        assert predicted["cycles"] == pytest.approx(truth, rel=0.05)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            exponential_regression([(0.2, self.metrics_at(0.2))])

    def test_degenerate_samples_fall_back(self):
        constant = {name: 5.0 for name in METRICS}
        samples = [(0.2, constant), (0.3, constant), (0.4, constant)]
        predicted = exponential_regression(samples)
        assert predicted["cycles"] == pytest.approx(5.0, rel=0.2)

    def test_output_finite(self):
        rng = np.random.default_rng(0)
        samples = [
            (f, {name: float(rng.uniform(1, 100)) for name in METRICS})
            for f in (0.2, 0.3, 0.4)
        ]
        predicted = exponential_regression(samples)
        assert all(np.isfinite(v) for v in predicted.values())


def test_start_up_imports_leave_scipy_unloaded():
    # Only the exponential regression fits curves; a default predict,
    # the runner, the service and the CLI must start without SciPy.
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        "import repro, repro.core.pipeline, repro.harness.runner\n"
        "import repro.harness.service, repro.cli.main\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "[]"


class TestPowerLaw:
    def test_fit_recovers_paper_equation(self):
        # Equation (4): speedup = 181 * perc^-1.15.
        percs = np.array([10.0, 20.0, 40.0, 80.0])
        speedups = power_law(percs, 181.0, -1.15)
        a, b = fit_power_law(percs, speedups)
        assert a == pytest.approx(181.0, rel=1e-6)
        assert b == pytest.approx(-1.15, abs=1e-9)

    def test_fit_with_noise_close(self):
        rng = np.random.default_rng(1)
        percs = np.linspace(10, 90, 9)
        speedups = power_law(percs, 50.0, -1.0) * rng.uniform(0.9, 1.1, 9)
        a, b = fit_power_law(percs, speedups)
        assert b == pytest.approx(-1.0, abs=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([10.0]), np.array([5.0]))
        with pytest.raises(ValueError):
            fit_power_law(np.array([10.0, -1.0]), np.array([5.0, 2.0]))


class TestCombine:
    def test_paper_ipc_example(self):
        # Section III-H: group IPCs 20 and 50 combine to 70; L1D miss
        # rates 0.70 and 0.60 average to 0.65.
        g1 = {name: 0.0 for name in METRICS}
        g2 = {name: 0.0 for name in METRICS}
        g1.update(ipc=20.0, l1d_miss_rate=0.70)
        g2.update(ipc=50.0, l1d_miss_rate=0.60)
        combined = combine_group_metrics([g1, g2])
        assert combined["ipc"] == pytest.approx(70.0)
        assert combined["l1d_miss_rate"] == pytest.approx(0.65)

    def test_cycles_average(self):
        groups = [
            {name: v for name in METRICS} for v in (100.0, 200.0, 300.0)
        ]
        assert combine_group_metrics(groups)["cycles"] == pytest.approx(200.0)

    def test_single_group_identity_except_nothing(self):
        group = {name: 3.0 for name in METRICS}
        assert combine_group_metrics([group]) == group

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_group_metrics([])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=8))
    def test_property_combined_within_group_bounds_for_rates(self, values):
        groups = [{name: v for name in METRICS} for v in values]
        combined = combine_group_metrics(groups)
        assert min(values) - 1e-9 <= combined["l2_miss_rate"] <= max(values) + 1e-9
        assert combined["ipc"] == pytest.approx(sum(values))


class TestDegradedCombine:
    def test_full_coverage_matches_plain_combine(self):
        from repro.core import combine_degraded_metrics

        groups = [{name: float(v) for name in METRICS} for v in (10, 20, 30, 40)]
        assert combine_degraded_metrics(groups, 1.0) == combine_group_metrics(
            groups
        )

    def test_throughput_rescaled_by_coverage(self):
        from repro.core import combine_degraded_metrics

        survivors = [{name: 10.0 for name in METRICS} for _ in range(3)]
        combined = combine_degraded_metrics(survivors, 0.75)
        # IPC sums to 30 over 75% of the plane -> 40 projected to the full
        # plane; rate/absolute metrics stay at the survivor average.
        assert combined["ipc"] == pytest.approx(40.0)
        assert combined["cycles"] == pytest.approx(10.0)
        assert combined["l1d_miss_rate"] == pytest.approx(10.0)

    def test_no_survivors_raises_degraded_error(self):
        from repro.core import combine_degraded_metrics
        from repro.errors import DegradedResultError

        with pytest.raises(DegradedResultError):
            combine_degraded_metrics([], 0.5)

    def test_bad_coverage_rejected(self):
        from repro.core import combine_degraded_metrics

        group = [{name: 1.0 for name in METRICS}]
        for coverage in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                combine_degraded_metrics(group, coverage)
