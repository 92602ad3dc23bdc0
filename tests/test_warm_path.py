"""Sink-first resolution: a warm predict reads one persisted result.

``StageGraph.resolve`` probes a node's static fingerprint before it
expands the node's dependencies, and ``CombineStage`` persists every clean
``ZatelResult``.  These tests pin what that buys and what it must never
break: a warm predict runs no stage, degraded results are never persisted,
a corrupt result recomputes from upstream hits, a stale probe falls back to
resolving, and drivers never mutate the result the store owns.
"""

import json
import pathlib
from pathlib import Path

from repro.core import ExecutionPolicy, Zatel
from repro.core.stages import (
    ArtifactStore,
    Stage,
    StageContext,
    StageCounters,
    StageGraph,
    source,
)
from repro.core.stages.requests import PredictSpec, build_spec_graph
from repro.gpu import MOBILE_SOC
from repro.harness.runner import Runner
from repro.harness.service import ServiceRunner
from repro.models import SamplingPredictor
from repro.testing import FaultPlan, exception
from repro.testing.faults import ALWAYS

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_predict.json").read_text()
)

#: The sampling baseline's pinned metrics on the small scene at 30%
#: (``test_stages.TestGoldenValues.test_sampling_baseline``).
SAMPLING_GOLDEN = {
    "ipc": 13.624338624338625,
    "cycles": 3780.0,
    "l1d_miss_rate": 0.11632047477744807,
    "l2_miss_rate": 0.4279661016949153,
    "rt_efficiency": 9.16609589041096,
    "dram_efficiency": 0.2961165048543689,
    "bw_utilization": 0.10758377425044091,
}

FAST = {"backoff_base": 0.0, "backoff_cap": 0.0}


def resolve_counted(zatel, scene, frame, store, **ctx_kwargs):
    """Resolve ``zatel``'s graph through ``store``; (result, counters)."""
    counters = StageCounters()
    graph, terminal = zatel.build_graph(scene, frame)
    ctx = StageContext(store=store, counters=counters, **ctx_kwargs)
    return graph.resolve(terminal, ctx).value, counters


def combine_path(store, zatel, scene, frame):
    _, terminal = zatel.build_graph(scene, frame)
    return store.path_for(terminal.fingerprint_static())


class TestWarmPredict:
    def test_warm_predict_reads_one_artifact(self, small_scene, small_frame, tmp_path):
        zatel = Zatel(MOBILE_SOC)
        cold = zatel.predict(small_scene, small_frame, store=ArtifactStore(tmp_path))
        assert combine_path(ArtifactStore(tmp_path), zatel, small_scene, small_frame).exists()

        warm, counters = resolve_counted(
            zatel, small_scene, small_frame, ArtifactStore(tmp_path)
        )
        assert counters.executions == {}
        assert counters.cache_hits == {"combine": 1}
        assert warm.metrics == cold.metrics

        fresh = ArtifactStore(tmp_path)
        again = zatel.predict(small_scene, small_frame, store=fresh)
        assert fresh.stats.disk_hits == 1
        assert again.metrics == cold.metrics
        assert again.groups == cold.groups

    def test_degraded_result_is_not_persisted(self, small_scene, small_frame, tmp_path):
        zatel = Zatel(MOBILE_SOC)
        degraded = zatel.predict(
            small_scene,
            small_frame,
            policy=ExecutionPolicy(workers=1, retries=1, **FAST),
            fault_plan=FaultPlan([exception(2, attempts=ALWAYS)]),
            store=ArtifactStore(tmp_path),
        )
        assert degraded.degraded
        assert not combine_path(
            ArtifactStore(tmp_path), zatel, small_scene, small_frame
        ).exists()

        clean, counters = resolve_counted(
            zatel, small_scene, small_frame, ArtifactStore(tmp_path)
        )
        assert not clean.degraded
        assert counters.executions["combine"] == 1
        assert counters.executions["simulate_groups"] == 1
        assert clean.metrics == zatel.predict(small_scene, small_frame).metrics

    def test_corrupt_result_recomputes_from_upstream_hits(
        self, small_scene, small_frame, tmp_path
    ):
        zatel = Zatel(MOBILE_SOC)
        cold = zatel.predict(small_scene, small_frame, store=ArtifactStore(tmp_path))
        combine_path(ArtifactStore(tmp_path), zatel, small_scene, small_frame).write_bytes(
            b"garbage"
        )
        fresh = ArtifactStore(tmp_path)
        rerun, counters = resolve_counted(zatel, small_scene, small_frame, fresh)
        assert fresh.stats.corrupt == 1
        assert counters.executions.get("simulate_groups", 0) == 0
        assert counters.cache_hits["simulate_groups"] == 1
        assert counters.executions["combine"] == 1
        assert rerun.metrics == cold.metrics
        # The recomputed result is persisted again.
        _, counters = resolve_counted(
            zatel, small_scene, small_frame, ArtifactStore(tmp_path)
        )
        assert counters.cache_hits == {"combine": 1}

    def test_sampling_predict_warm_matches_golden(
        self, small_scene, small_frame, tmp_path
    ):
        predictor = SamplingPredictor(MOBILE_SOC)
        cold = predictor.predict(
            small_scene, small_frame, 0.30, store=ArtifactStore(tmp_path)
        )
        fresh = ArtifactStore(tmp_path)
        warm = predictor.predict(small_scene, small_frame, 0.30, store=fresh)
        assert fresh.stats.disk_hits == 1
        for name, expected in SAMPLING_GOLDEN.items():
            assert cold.metrics[name] == expected, name
            assert warm.metrics[name] == expected, name


class TestDriversCopyResults:
    def test_repeated_predict_keeps_earlier_result(self, small_scene, small_frame):
        store = ArtifactStore()
        zatel = Zatel(MOBILE_SOC)
        first = zatel.predict(small_scene, small_frame, store=store)
        seconds = first.host_seconds
        second = zatel.predict(small_scene, small_frame, store=store)
        assert second is not first
        assert first.host_seconds == seconds
        assert second.metrics == first.metrics
        _, terminal = zatel.build_graph(small_scene, small_frame)
        stored = store.get(terminal.fingerprint_static())
        assert stored.host_seconds == 0.0
        assert stored.serial_fallback is False

    def test_served_execute_keeps_stored_result(self, tmp_path):
        runner = Runner(cache_dir=tmp_path)
        spec = PredictSpec(scene="SPRNG", size=24)
        served = ServiceRunner(runner)
        first = served.execute(spec)
        second = served.execute(spec)
        assert second["stages"] == {"executions": {}, "cache_hits": {"combine": 1}}
        assert second["metrics"] == first["metrics"]
        _, _, terminal = build_spec_graph(
            spec, runner.scene(spec.scene), runner.frame(served.workload(spec))
        )
        stored = runner.store.get(terminal.fingerprint_static())
        assert stored.host_seconds == 0.0
        assert stored.serial_fallback is False


class TestServedWarmPath:
    def test_served_results_match_golden_cold_and_warm(self, tmp_path):
        meta = GOLDEN["meta"]
        assert (meta["gpu"], meta["spp"], meta["seed"]) == ("MobileSoC", 1, 0)
        spec = PredictSpec(scene="SPRNG", size=meta["size"], gpu="mobile")
        cold = ServiceRunner(Runner(cache_dir=tmp_path)).execute(spec)
        warm = ServiceRunner(Runner(cache_dir=tmp_path)).execute(spec)
        assert warm["stages"] == {"executions": {}, "cache_hits": {"combine": 1}}
        assert cold["metrics"] == GOLDEN["metrics"]["SPRNG"]
        assert warm["metrics"] == GOLDEN["metrics"]["SPRNG"]
        assert {k: v for k, v in warm.items() if k not in ("stages", "host_seconds")} == {
            k: v for k, v in cold.items() if k not in ("stages", "host_seconds")
        }


class TestArtifactStoreRaces:
    def test_entry_vanishing_after_existence_check_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        ArtifactStore(tmp_path).put("cafe01", "value")
        store = ArtifactStore(tmp_path)

        class VanishedPath(type(pathlib.Path())):
            """A path whose existence was checked just before its removal."""

            def exists(self, *args, **kwargs):
                return True

        path_for = store.path_for
        monkeypatch.setattr(store, "path_for", lambda key: VanishedPath(path_for(key)))
        ArtifactStore(tmp_path).forget("cafe01")
        assert store.get("cafe01", default="absent") == "absent"
        assert store.stats.misses == 1
        assert store.stats.corrupt == 0

    def test_contains_loads_without_counting_a_lookup(self, tmp_path):
        ArtifactStore(tmp_path).put("beef02", [1])
        store = ArtifactStore(tmp_path)
        assert not store.contains("absent")
        assert store.contains("beef02")
        assert (store.stats.disk_hits, store.stats.misses) == (1, 0)
        assert store.get("beef02") == [1]
        assert (store.stats.disk_hits, store.stats.memory_hits) == (1, 1)


class Increment(Stage):
    """A trivial chain link that records the values it was run on."""

    name = "increment"
    cacheable = True

    def __init__(self, runs: list) -> None:
        self.runs = runs

    def run(self, ctx, value):  # noqa: ARG002
        self.runs.append(value)
        return value + 1


def chain(length, runs):
    graph = StageGraph()
    node = source("zero", 0)
    for _ in range(length):
        node = graph.add(Increment(runs), value=node)
    return graph, node


class StaleProbeStore(ArtifactStore):
    """Every probe says "present", as if entries vanished right after."""

    def contains(self, key):
        return True


class TestSinkFirstResolve:
    def test_deep_chain_resolves_without_recursion(self):
        runs = []
        graph, sink = chain(3000, runs)
        store = ArtifactStore()
        assert graph.resolve(sink, StageContext(store=store)).value == 3000
        assert len(runs) == 3000

        counters = StageCounters()
        graph, sink = chain(3000, runs)
        ctx = StageContext(store=store, counters=counters)
        assert graph.resolve(sink, ctx).value == 3000
        assert counters.cache_hits == {"increment": 1}
        assert counters.executions == {}

    def test_stale_probe_falls_back_to_resolving(self):
        runs = []
        graph, sink = chain(5, runs)
        counters = StageCounters()
        ctx = StageContext(store=StaleProbeStore(), counters=counters)
        assert graph.resolve(sink, ctx).value == 5
        assert runs == [0, 1, 2, 3, 4]
        assert counters.executions == {"increment": 5}

    def test_probe_hit_mid_graph_skips_only_its_upstream(self, tmp_path):
        runs = []
        graph, sink = chain(4, runs)
        store = ArtifactStore(tmp_path)
        graph.resolve(sink, StageContext(store=store))
        store.forget(sink.fingerprint_static())
        runs.clear()
        counters = StageCounters()
        graph, sink = chain(4, runs)
        ctx = StageContext(store=ArtifactStore(tmp_path), counters=counters)
        assert graph.resolve(sink, ctx).value == 4
        assert runs == [3]
        assert counters.cache_hits == {"increment": 1}
        assert counters.executions == {"increment": 1}

