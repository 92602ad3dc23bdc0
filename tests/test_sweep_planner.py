"""Tests for the sweep planner: dedup, counters, outcomes, harness wiring."""

import pytest

from repro.core import ExecutionPolicy, SweepPlanner, SweepPoint, ZatelConfig
from repro.core.stages import ArtifactStore
from repro.gpu import MOBILE_SOC, RTX_2060
from repro.harness import Runner


class TestSweepPoint:
    def test_sampling_requires_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            SweepPoint("small", MOBILE_SOC, mode="sampling")
        with pytest.raises(ValueError, match="fraction"):
            SweepPoint("small", MOBILE_SOC, mode="sampling", fraction=1.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            SweepPoint("small", MOBILE_SOC, mode="bogus")

    def test_describe(self):
        point = SweepPoint("small", MOBILE_SOC, mode="sampling", fraction=0.2)
        assert point.describe() == "small/MobileSoC/sampling@20%"


class TestPerPointDedup:
    def test_two_point_perc_sweep_profiles_once(self, small_scene, small_frame):
        """The Fig 16 experiment shape: one scene, two traced
        percentages.  Profile and quantize must execute exactly once —
        the sweep's headline saving."""
        points = [
            SweepPoint(
                "small", MOBILE_SOC, mode="sampling", fraction=perc / 100.0
            )
            for perc in (20, 40)
        ]
        planner = SweepPlanner()
        result = planner.run(
            points, {"small": small_scene}, {"small": small_frame}
        )
        assert result.succeeded
        assert result.executions_of("profile") == 1
        assert result.executions_of("quantize") == 1
        assert result.executions_of("sampling_simulate") == 2
        # Per-point graphs carry 3 stages each; 2 are shared.
        assert result.total_nodes == 6
        assert result.unique_nodes == 4
        assert result.deduplicated_nodes == 2
        # Distinct fractions give distinct predictions.
        low, high = (result.value(p) for p in points)
        assert low.fraction == 0.2 and high.fraction == 0.4
        assert low.stats.pixels_traced < high.stats.pixels_traced

    def test_mixed_mode_sweep_shares_profiling(self, small_scene, small_frame):
        """Zatel and the sampling baseline on the same scene share the
        profile/quantize artifacts when their knobs coincide."""
        points = [
            SweepPoint("small", MOBILE_SOC),
            SweepPoint("small", MOBILE_SOC, mode="sampling", fraction=0.3),
        ]
        result = SweepPlanner().run(
            points, {"small": small_scene}, {"small": small_frame}
        )
        assert result.succeeded
        assert result.executions_of("profile") == 1
        assert result.executions_of("quantize") == 1

    def test_distinct_gpus_do_not_collide(self, small_scene, small_frame):
        points = [
            SweepPoint("small", MOBILE_SOC),
            SweepPoint("small", RTX_2060),
        ]
        result = SweepPlanner().run(
            points, {"small": small_scene}, {"small": small_frame}
        )
        assert result.succeeded
        # Profiling is GPU-independent: still shared.
        assert result.executions_of("profile") == 1
        # Downscaling and simulation are not.
        assert result.executions_of("downscale") == 2
        assert result.executions_of("simulate_groups") == 2
        mobile, rtx = (result.value(p) for p in points)
        assert mobile.gpu_name == "MobileSoC" and rtx.gpu_name == "RTX2060"

    def test_duplicate_points_execute_once(self, small_scene, small_frame):
        point = SweepPoint("small", MOBILE_SOC, config=ZatelConfig(seed=2))
        result = SweepPlanner().run(
            [point, point], {"small": small_scene}, {"small": small_frame}
        )
        assert result.succeeded
        assert result.counters.total_executions() == 7  # one full pipeline
        assert result.unique_nodes == 7

    def test_shared_store_carries_across_sweeps(
        self, small_scene, small_frame, tmp_path
    ):
        """A second sweep over a re-opened disk store runs no stage: each
        point's sink is probed first and its persisted combine result is
        the one hit."""
        store = ArtifactStore(tmp_path)
        points = [SweepPoint("small", MOBILE_SOC), SweepPoint("small", RTX_2060)]
        first = SweepPlanner(store=store).run(
            points, {"small": small_scene}, {"small": small_frame}
        )
        assert first.succeeded
        # Two full pipelines that share profile and quantize.
        assert first.counters.total_executions() == 12
        again = SweepPlanner(store=ArtifactStore(tmp_path)).run(
            points, {"small": small_scene}, {"small": small_frame}
        )
        assert again.succeeded
        assert again.counters.total_executions() == 0
        assert again.counters.cache_hits == {"combine": len(points)}
        for point in points:
            assert again.value(point).metrics == first.value(point).metrics


class TestPointIsolation:
    def test_failing_point_fails_alone(
        self, small_scene, small_frame, monkeypatch
    ):
        """One point's stage raises: that point's outcome carries the
        error and one FailureRecord; the other points succeed."""
        from repro.core.stages import SamplingSimulateStage

        run = SamplingSimulateStage.run

        def flaky(self, ctx, **inputs):
            if self.fraction == 0.4:
                raise RuntimeError("injected stage failure")
            return run(self, ctx, **inputs)

        monkeypatch.setattr(SamplingSimulateStage, "run", flaky)
        points = [
            SweepPoint("small", MOBILE_SOC, mode="sampling", fraction=f)
            for f in (0.2, 0.4, 0.6)
        ]
        result = SweepPlanner(
            policy=ExecutionPolicy(retries=0)
        ).run(points, {"small": small_scene}, {"small": small_frame})
        assert not result.succeeded
        assert len(result.failures) == 1
        assert result.failures[0].error == "RuntimeError"
        failed = result.outcomes[points[1]]
        assert "injected stage failure" in failed.error
        with pytest.raises(RuntimeError, match="failed"):
            result.value(points[1])
        for point in (points[0], points[2]):
            assert result.outcomes[point].ok
            assert result.value(point).fraction == point.fraction


class TestRunnerSweep:
    def test_runner_sweep_end_to_end(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        points = [
            SweepPoint(
                "SPRNG", MOBILE_SOC, mode="sampling", fraction=perc / 100.0
            )
            for perc in (20, 40)
        ]
        result = runner.sweep(points, width=32, height=32)
        assert result.succeeded
        assert result.executions_of("profile") == 1
        assert result.executions_of("quantize") == 1
        for point in points:
            assert result.value(point).metrics["cycles"] > 0
