"""Tests for the telemetry bus: instruments, stat groups, the metric
registry, interval snapshots, timeline windows, and .zperf round-trips."""

import dataclasses
import json

import pytest

from repro.gpu.cache import CacheStats
from repro.gpu.dram import DRAMStats
from repro.gpu.rt_unit import RTStats
from repro.gpu.stats import (
    EXTENDED_METRICS,
    METRIC_DESCRIPTIONS,
    METRICS,
    MetricKind,
    SimulationStats,
    merge_simulation_stats,
)
from repro.gpu.telemetry import (
    METRIC_REGISTRY,
    METRIC_SPECS,
    Counter,
    CycleCounter,
    Histogram,
    IntervalSnapshot,
    MaxGauge,
    NULL_BUS,
    RatioGauge,
    StatGroup,
    TelemetryBus,
    TelemetryRecord,
    TimelineEvent,
    aggregate_metrics,
    export_zperf,
    load_zperf,
)


class _WorkStats(StatGroup):
    items = Counter("things processed")
    failures = Counter("things dropped")
    busy = CycleCounter("cycles occupied")
    peak = MaxGauge("high-water mark")
    sizes = Histogram(4, "size distribution")
    failure_rate = RatioGauge("failures", "items")


class TestInstruments:
    def test_defaults_and_kwargs_constructor(self):
        s = _WorkStats()
        assert s.items == 0 and s.busy == 0.0 and s.sizes == [0, 0, 0, 0]
        s2 = _WorkStats(items=10, failures=4)
        assert s2.items == 10 and s2.failures == 4

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="no statistic"):
            _WorkStats(bogus=1)

    def test_plain_arithmetic_storage(self):
        s = _WorkStats()
        s.items += 3
        s.busy += 1.5
        s.sizes[2] += 1
        assert s.items == 3 and s.busy == 1.5 and s.sizes[2] == 1

    def test_ratio_gauge_reads_weighted(self):
        s = _WorkStats(items=10, failures=4)
        assert s.failure_rate == 0.4
        assert _WorkStats().failure_rate == 0.0  # zero-denominator guard

    def test_generic_merge_per_semantics(self):
        a = _WorkStats(items=10, failures=1, busy=2.0, peak=5.0,
                       sizes=[1, 0, 0, 0])
        b = _WorkStats(items=30, failures=5, busy=3.0, peak=3.0,
                       sizes=[0, 2, 0, 1])
        a.merge(b)
        assert a.items == 40 and a.failures == 6 and a.busy == 5.0
        assert a.peak == 5.0  # max, not sum
        assert a.sizes == [1, 2, 0, 1]  # element-wise
        assert a.failure_rate == 6 / 40  # weighted mean via components

    def test_merge_rejects_foreign_group(self):
        with pytest.raises(TypeError, match="cannot merge"):
            _WorkStats().merge(CacheStats())

    def test_merged_classmethod(self):
        total = _WorkStats.merged(
            [_WorkStats(items=1), _WorkStats(items=2), _WorkStats(items=3)]
        )
        assert total.items == 6

    def test_equality_and_repr(self):
        assert _WorkStats(items=2) == _WorkStats(items=2)
        assert _WorkStats(items=2) != _WorkStats(items=3)
        assert "items=2" in repr(_WorkStats(items=2))

    def test_scalars_exclude_histograms(self):
        flat = _WorkStats(items=5, sizes=[9, 9, 9, 9]).scalars()
        assert flat["items"] == 5
        assert "sizes" not in flat


class TestComponentStatGroups:
    """The converted simulator stat classes keep their legacy surface."""

    def test_cache_stats(self):
        s = CacheStats(accesses=10, misses=4)
        assert s.hits == 6 and s.miss_rate == 0.4
        s.merge(CacheStats(accesses=10, misses=0))
        assert s.accesses == 20 and s.miss_rate == 0.2

    def test_dram_stats(self):
        s = DRAMStats(requests=3, data_cycles=24.0, pending_cycles=48.0)
        assert s.efficiency() == 0.5
        s.merge(DRAMStats(requests=1, data_cycles=8.0, pending_cycles=8.0))
        assert s.requests == 4 and s.data_cycles == 32.0

    def test_rt_stats_histogram_merges(self):
        a = RTStats(traversal_steps=2, active_ray_steps=4)
        a.active_lane_hist[2] = 2
        b = RTStats(traversal_steps=1, active_ray_steps=32)
        b.active_lane_hist[32] = 1
        a.merge(b)
        assert a.traversal_steps == 3
        assert a.active_lane_hist[2] == 2 and a.active_lane_hist[32] == 1
        assert a.average_efficiency() == 12.0


class TestMetricRegistry:
    def test_views_derive_from_registry(self):
        assert METRICS == tuple(
            s.name for s in METRIC_SPECS if not s.extended
        )
        assert EXTENDED_METRICS == tuple(
            s.name for s in METRIC_SPECS if s.extended
        )
        assert set(METRIC_DESCRIPTIONS) == set(METRICS)
        assert MetricKind.BY_METRIC == {
            s.name: s.kind for s in METRIC_SPECS
        }

    def test_point_error_flags_match_harness_convention(self):
        from repro.harness.metrics import RATE_METRICS

        assert RATE_METRICS == frozenset(
            {"l1d_miss_rate", "l2_miss_rate", "dram_efficiency",
             "bw_utilization"}
        )
        # rt/simd efficiency and occupancy keep relative-percent errors
        assert not METRIC_REGISTRY["rt_efficiency"].point_error
        assert not METRIC_REGISTRY["simd_efficiency"].point_error

    def test_aggregate_semantics(self):
        groups = [
            {"ipc": 20.0, "cycles": 100.0, "l2_miss_rate": 0.2},
            {"ipc": 50.0, "cycles": 200.0, "l2_miss_rate": 0.4},
        ]
        combined = aggregate_metrics(groups)
        assert combined["ipc"] == 70.0  # throughput sums (paper §III-H)
        assert combined["cycles"] == 150.0  # absolute averages
        assert combined["l2_miss_rate"] == pytest.approx(0.3)

    def test_aggregate_divisors(self):
        groups = [{"ipc": 20.0}, {"ipc": 50.0}]
        degraded = aggregate_metrics(groups, throughput_divisor=0.5)
        assert degraded["ipc"] == 140.0
        with pytest.raises(ValueError):
            aggregate_metrics([])
        with pytest.raises(ValueError):
            aggregate_metrics(groups, throughput_divisor=0.0)


class TestSimulationStatsMerge:
    """Satellite: merge helpers must reject mismatched provenance."""

    def _stats(self, **kw):
        base = dict(
            config_name="MobileSoC", cycles=100.0,
            instructions=1000, l1d_accesses=10, l1d_misses=2,
            sm_count=8, dram_channels=4,
        )
        base.update(kw)
        return SimulationStats(**base)

    def test_merge_sums_counters_and_maxes_cycles(self):
        a = self._stats(cycles=100.0, instructions=1000)
        b = self._stats(cycles=80.0, instructions=500)
        a.merge_from(b)
        assert a.cycles == 100.0
        assert a.instructions == 1500
        assert a.l1d_accesses == 20
        assert a.sm_count == 16 and a.dram_channels == 8

    def test_mismatched_config_rejected(self):
        a = self._stats()
        b = self._stats(config_name="RTX2060")
        with pytest.raises(ValueError, match="config_name"):
            a.merge_from(b)

    def test_merge_simulation_stats_helper(self):
        runs = [self._stats(), self._stats(), self._stats()]
        total = merge_simulation_stats(runs)
        assert total.instructions == 3000
        assert total.sm_count == 24
        with pytest.raises(ValueError):
            merge_simulation_stats([])
        with pytest.raises(ValueError):
            merge_simulation_stats(
                [self._stats(), self._stats(warp_size=64)]
            )


class TestTelemetryBus:
    def test_disabled_bus_is_inert(self):
        bus = TelemetryBus()
        assert not bus.enabled
        group = bus.register("a", CacheStats())
        bus.register("a", CacheStats())  # duplicate fine when disabled
        bus.window("a", "stall", 0.0, 5.0)
        bus.advance(1e9)
        bus.finalize(1e9)
        assert bus.record() is None
        assert isinstance(group, CacheStats)

    def test_null_bus_shared_safely(self):
        NULL_BUS.register("x", CacheStats())
        NULL_BUS.register("x", CacheStats())
        assert NULL_BUS.record() is None

    def test_duplicate_registration_rejected_when_enabled(self):
        bus = TelemetryBus(interval=10)
        bus.register("a", CacheStats())
        with pytest.raises(ValueError, match="already registered"):
            bus.register("a", CacheStats())

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            TelemetryBus(interval=-1)

    def test_interval_snapshots_are_cumulative(self):
        bus = TelemetryBus(interval=10)
        stats = bus.register("cache", CacheStats())
        stats.accesses += 3
        bus.advance(10.0)  # boundary at 10 crossed
        stats.accesses += 5
        bus.advance(25.0)  # boundaries at 20 crossed
        bus.finalize(25.0)
        record = bus.record()
        assert [s.counters["cache.accesses"] for s in record.snapshots] == [
            3, 8, 8,
        ]
        assert record.deltas()[0]["cache.accesses"] == 3
        assert record.deltas()[1]["cache.accesses"] == 5
        assert sum(d["cache.accesses"] for d in record.deltas()) == 8
        assert record.final_counters()["cache.accesses"] == 8

    def test_advance_catches_up_over_skipped_boundaries(self):
        bus = TelemetryBus(interval=10)
        bus.register("cache", CacheStats())
        bus.advance(35.0)  # crosses 10, 20, 30 at once
        assert len(bus.record().snapshots) == 3

    def test_finalize_emits_trailing_snapshot_once(self):
        bus = TelemetryBus(interval=10)
        bus.register("cache", CacheStats())
        bus.advance(10.0)
        bus.finalize(10.0)  # last snapshot already at 10: no duplicate
        assert len(bus.record().snapshots) == 1

    def test_windows_coalesce_per_lane(self):
        bus = TelemetryBus(timeline=True)
        bus.window("sm0", "issue_stall", 0.0, 5.0)
        bus.window("sm0", "issue_stall", 3.0, 8.0)  # overlaps: extends
        bus.window("sm0", "issue_stall", 20.0, 22.0)  # gap: new window
        bus.window("sm1", "issue_stall", 1.0, 2.0)  # separate lane
        bus.finalize(30.0)
        events = bus.record().events
        assert events == (
            TimelineEvent(0.0, 8.0, "sm0", "issue_stall"),
            TimelineEvent(1.0, 2.0, "sm1", "issue_stall"),
            TimelineEvent(20.0, 22.0, "sm0", "issue_stall"),
        )
        assert events[0].duration == 8.0

    def test_empty_windows_dropped(self):
        bus = TelemetryBus(timeline=True)
        bus.window("sm0", "issue_stall", 5.0, 5.0)
        bus.finalize(10.0)
        assert bus.record().events == ()


class TestZperfRoundTrip:
    def _record(self):
        return TelemetryRecord(
            interval=10,
            snapshots=(
                IntervalSnapshot(0, 0.0, 10.0, {"core.instructions": 100}),
                IntervalSnapshot(1, 10.0, 18.0, {"core.instructions": 130}),
            ),
            events=(TimelineEvent(2.0, 6.0, "sm0", "issue_stall"),),
        )

    def _stats(self):
        return SimulationStats(
            config_name="MobileSoC", cycles=18.0,
            instructions=130, telemetry=self._record(),
        )

    def test_round_trip(self, tmp_path):
        path = export_zperf(tmp_path / "run.zperf", self._stats(),
                            meta={"scene": "SPRNG"})
        data = load_zperf(path)
        assert data["header"]["interval"] == 10
        assert data["header"]["scene"] == "SPRNG"
        assert data["header"]["cycles"] == 18.0
        assert [row["d"]["core.instructions"] for row in data["intervals"]] \
            == [100, 30]
        assert data["events"][0]["component"] == "sm0"
        assert data["summary"]["counters"]["core.instructions"] == 130
        assert data["summary"]["metrics"]["cycles"] == 18.0

    def test_export_without_telemetry_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="without telemetry"):
            export_zperf(tmp_path / "x.zperf", SimulationStats())

    def test_load_rejects_non_zperf(self, tmp_path):
        bad = tmp_path / "bad.zperf"
        bad.write_text('{"type": "interval"}\n')
        with pytest.raises(ValueError, match="no header"):
            load_zperf(bad)
        bad.write_text("not json\n")
        with pytest.raises(ValueError, match="malformed"):
            load_zperf(bad)
        bad.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_zperf(bad)

    def test_load_rejects_future_version(self, tmp_path):
        bad = tmp_path / "v99.zperf"
        bad.write_text(json.dumps({"type": "header", "version": 99}) + "\n")
        with pytest.raises(ValueError, match="version"):
            load_zperf(bad)


class TestStatsCarryTelemetry:
    def test_run_attaches_record_when_enabled(self, small_scene):
        from repro.gpu import CycleSimulator, MOBILE_SOC, compile_kernel
        from repro.tracer.tracer import FunctionalTracer, RenderSettings

        frame = FunctionalTracer(
            small_scene,
            RenderSettings(width=8, height=8, samples_per_pixel=1),
        ).trace_frame()
        pixels = list(frame.pixels)
        gpu = dataclasses.replace(
            MOBILE_SOC, telemetry_interval=100, timeline_trace=True
        )
        warps = compile_kernel(frame, pixels, small_scene.addresses)
        stats = CycleSimulator(gpu, small_scene.addresses).run(warps)
        record = stats.telemetry
        assert record is not None and record.interval == 100
        assert record.snapshots[-1].end == stats.cycles
        assert record.final_counters()["core.instructions"] \
            == stats.instructions
        assert len(record.events) > 0

        plain = CycleSimulator(MOBILE_SOC, small_scene.addresses).run(warps)
        assert plain.telemetry is None
        # telemetry is observability only: metrics must be identical
        assert plain.metrics() == stats.metrics()
        assert plain.extended_metrics() == stats.extended_metrics()


class TestTimelineRenderers:
    def test_render_timeline(self):
        from repro.viz import render_timeline

        events = [
            TimelineEvent(0.0, 50.0, "sm0", "issue_stall"),
            TimelineEvent(10.0, 20.0, "dram.0", "queue_contention"),
        ]
        out = render_timeline(events, total_cycles=100.0, width=20)
        assert "sm0 issue_stall" in out
        assert "dram.0 queue_contention" in out
        assert "50.0%" in out

    def test_render_timeline_truncates_loudly(self):
        from repro.viz import render_timeline

        events = [
            TimelineEvent(0.0, 1.0, f"sm{i}", "issue_stall")
            for i in range(30)
        ]
        out = render_timeline(events, 10.0, max_lanes=5)
        assert "25 more lanes" in out

    def test_render_timeline_empty(self):
        from repro.viz import render_timeline

        assert "no timeline events" in render_timeline([], 100.0)

    def test_render_interval_activity(self):
        from repro.viz import render_interval_activity

        deltas = [
            {"core.instructions": 100, "sm0.l1d.misses": 5},
            {"core.instructions": 50, "sm0.l1d.misses": 1},
        ]
        out = render_interval_activity(deltas)
        assert "instructions" in out and "total 150" in out
        assert "L1D misses" in out
        assert "no interval snapshots" in render_interval_activity([])


class TestTraceTimelineCLI:
    def test_trace_timeline_writes_zperf(self, tmp_path, monkeypatch, capsys):
        import repro.harness.runner as runner_module
        from repro.cli import main

        monkeypatch.setattr(
            runner_module, "_shared", runner_module.Runner(cache_dir=tmp_path)
        )
        out = tmp_path / "run.zperf"
        code = main(
            ["trace", "SPRNG", "--size", "12", "--timeline",
             "--interval", "200", "--out", str(out)]
        )
        assert code == 0
        data = load_zperf(out)
        assert data["header"]["scene"] == "SPRNG"
        assert data["summary"]["metrics"]["cycles"] > 0
        printed = capsys.readouterr().out
        assert "timeline over" in printed
        assert "per-interval activity" in printed

    def test_trace_timeline_rejects_bad_interval(self, tmp_path, monkeypatch):
        import repro.harness.runner as runner_module
        from repro.cli import main

        monkeypatch.setattr(
            runner_module, "_shared", runner_module.Runner(cache_dir=tmp_path)
        )
        assert main(
            ["trace", "SPRNG", "--size", "12", "--timeline",
             "--interval", "0"]
        ) == 2
