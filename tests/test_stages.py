"""Tests for the stage graph: fingerprints, the artifact store, and
behaviour preservation of the refactored pipeline (golden values)."""

import pickle

import numpy as np
import pytest

from repro.core import Zatel, ZatelConfig
from repro.core.stages import (
    ArtifactStore,
    StageContext,
    StageCounters,
    stable_hash,
)
from repro.core.stages.concrete import ProfileStage, QuantizeStage
from repro.core.stages.fingerprint import gpu_fingerprint
from repro.gpu import MOBILE_SOC
from repro.models import SamplingPredictor


class TestStableHash:
    def test_deterministic(self):
        value = {"a": [1, 2.5, "x"], "b": (None, True)}
        assert stable_hash(value) == stable_hash(value)

    def test_dict_order_invariant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_distinguishes_values_and_types(self):
        keys = {
            stable_hash(1),
            stable_hash(1.0),
            stable_hash("1"),
            stable_hash(True),
            stable_hash((1,)),
        }
        assert len(keys) == 5
        # Tuples and lists are both just sequences to the fingerprint.
        assert stable_hash([1]) == stable_hash((1,))

    def test_numpy_float_hashes_like_python_float(self):
        # The repr of a float subclass depends on the NumPy version; the
        # hash must not (stage params may hold NumPy floats).
        assert stable_hash(np.float64(0.45)) == stable_hash(0.45)
        assert stable_hash([np.float64(0.3), 0.6]) == stable_hash([0.3, 0.6])

    def test_rejects_arbitrary_objects(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            stable_hash(Opaque())

    def test_hashes_dataclasses_by_field(self):
        assert gpu_fingerprint(MOBILE_SOC) == gpu_fingerprint(MOBILE_SOC)
        from dataclasses import replace

        edited = replace(MOBILE_SOC, num_sms=MOBILE_SOC.num_sms + 1)
        assert gpu_fingerprint(edited) != gpu_fingerprint(MOBILE_SOC)


class TestArtifactStore:
    def test_memory_only_roundtrip(self):
        store = ArtifactStore()
        store.put("k1", {"x": 1})
        assert store.get("k1") == {"x": 1}
        assert store.get("absent", default="d") == "d"
        with pytest.raises(ValueError):
            store.path_for("k1")

    def test_disk_roundtrip_and_layout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("abcdef", [1, 2, 3])
        path = store.path_for("abcdef")
        assert path == tmp_path / "objects" / "ab" / "abcdef.pkl"
        assert path.exists()
        fresh = ArtifactStore(tmp_path)
        assert fresh.get("abcdef") == [1, 2, 3]
        assert fresh.stats.disk_hits == 1

    def test_persist_false_stays_in_memory(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", "v", persist=False)
        assert store.get("k") == "v"
        assert not store.path_for("k").exists()
        assert ArtifactStore(tmp_path).get("k") is None

    def test_no_temp_files_left(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for i in range(5):
            store.put(f"key{i}", i)
        assert not [p for p in tmp_path.rglob("*") if ".tmp" in p.name]

    def test_corrupt_entry_recovers(self, tmp_path, caplog):
        store = ArtifactStore(tmp_path)
        store.put("deadbeef", "good")
        store.path_for("deadbeef").write_bytes(b"garbage")
        fresh = ArtifactStore(tmp_path)
        with caplog.at_level("WARNING", logger="repro.stages"):
            assert fresh.get("deadbeef") is None
        assert "corrupt cache file" in caplog.text
        assert fresh.stats.corrupt == 1
        assert not fresh.path_for("deadbeef").exists()

    def test_get_or_compute_computes_once(self, tmp_path):
        store = ArtifactStore(tmp_path)
        calls = []
        for _ in range(3):
            value = store.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1

    def test_forget_drops_memory_and_disk(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", 7)
        store.forget("k")
        assert store.get("k") is None
        assert not store.path_for("k").exists()


class TestFingerprintStability:
    """Same inputs → same key; any methodology change → different key."""

    def _terminal_key(self, scene, frame, config=None):
        graph, terminal = Zatel(MOBILE_SOC, config).build_graph(scene, frame)
        return terminal.fingerprint_static()

    def test_same_inputs_same_key(self, small_scene, small_frame):
        first = self._terminal_key(small_scene, small_frame)
        second = self._terminal_key(small_scene, small_frame)
        assert first == second

    def test_changed_seed_changes_key(self, small_scene, small_frame):
        base = self._terminal_key(small_scene, small_frame)
        reseeded = self._terminal_key(
            small_scene, small_frame, ZatelConfig(seed=1)
        )
        assert base != reseeded

    def test_changed_config_changes_key(self, small_scene, small_frame):
        keys = {
            self._terminal_key(small_scene, small_frame),
            self._terminal_key(
                small_scene, small_frame, ZatelConfig(division="coarse")
            ),
            self._terminal_key(
                small_scene, small_frame, ZatelConfig(distribution="exptmp")
            ),
            self._terminal_key(
                small_scene, small_frame, ZatelConfig(fraction_override=0.5)
            ),
        }
        assert len(keys) == 4

    def test_changed_code_version_changes_key(
        self, small_scene, small_frame, monkeypatch
    ):
        base = self._terminal_key(small_scene, small_frame)
        monkeypatch.setattr(ProfileStage, "code_version", "999-test")
        assert self._terminal_key(small_scene, small_frame) != base

    def test_profile_shared_between_zatel_and_sampling(
        self, small_scene, small_frame
    ):
        """With coinciding knobs, the Zatel pipeline and the sampling
        baseline address the *same* profile/quantize artifacts — the
        property sweep dedup relies on."""
        zatel_graph, _ = Zatel(MOBILE_SOC).build_graph(small_scene, small_frame)
        samp_graph, _ = SamplingPredictor(MOBILE_SOC).build_graph(
            small_scene, small_frame, 0.3
        )

        def keys_of(graph, stage_type):
            return {
                node.fingerprint_static()
                for node in graph.nodes
                if isinstance(node.stage, stage_type)
            }

        for stage_type in (ProfileStage, QuantizeStage):
            assert keys_of(zatel_graph, stage_type) == keys_of(
                samp_graph, stage_type
            )


class TestStageMemoization:
    def test_second_predict_hits_cache(self, small_scene, small_frame):
        store = ArtifactStore()
        zatel = Zatel(MOBILE_SOC)
        first = zatel.predict(small_scene, small_frame, store=store)
        ctx_counters = StageCounters()
        ctx = StageContext(store=store, counters=ctx_counters)
        graph, terminal = zatel.build_graph(small_scene, small_frame)
        second = graph.resolve(terminal, ctx).value
        assert ctx_counters.total_executions() == 0
        assert ctx_counters.total_hits() > 0
        assert second.metrics == first.metrics

    def test_results_pickle_cleanly(self, small_scene, small_frame, tmp_path):
        """Disk persistence requires every cacheable artifact to survive
        a pickle round-trip."""
        store = ArtifactStore(tmp_path)
        result = Zatel(MOBILE_SOC).predict(small_scene, small_frame, store=store)
        reloaded = ArtifactStore(tmp_path)
        rerun = Zatel(MOBILE_SOC).predict(
            small_scene, small_frame, store=reloaded
        )
        assert rerun.metrics == result.metrics
        assert pickle.loads(pickle.dumps(result)).metrics == result.metrics


class TestGoldenValues:
    """The stage refactor must be behaviour-preserving: these exact
    values were produced by the pre-refactor monolithic ``predict`` on
    the conftest small scene (fixed seeds, exact float equality)."""

    GOLDEN = {
        "default": {
            "ipc": 30.345787632776055,
            "cycles": 2252.9331028116367,
            "l1d_miss_rate": 0.0840694890033136,
            "l2_miss_rate": 0.6215986321751115,
            "rt_efficiency": 10.290954920425117,
            "dram_efficiency": 0.5969254604198608,
            "bw_utilization": 0.38357458919172965,
        },
        "regression": {
            "ipc": 27.613070287335105,
            "cycles": 2851.042593288909,
            "l1d_miss_rate": 0.1709932173250932,
            "l2_miss_rate": 0.6780797229154036,
            "rt_efficiency": 10.477610444850272,
            "dram_efficiency": 0.5563979595785871,
            "bw_utilization": 0.41416661783032316,
        },
        "coarse_exptmp": {
            "ipc": 31.488084850253827,
            "cycles": 1990.8127763426442,
            "l1d_miss_rate": 0.11480566105578138,
            "l2_miss_rate": 0.6896508680726344,
            "rt_efficiency": 11.11483874204399,
            "dram_efficiency": 0.49936040614942145,
            "bw_utilization": 0.3658658573764737,
        },
    }

    def _assert_golden(self, metrics, golden):
        for name, expected in golden.items():
            assert metrics[name] == expected, name

    def test_default_config(self, small_scene, small_frame):
        result = Zatel(MOBILE_SOC).predict(small_scene, small_frame)
        self._assert_golden(result.metrics, self.GOLDEN["default"])

    def test_regression_extrapolation(self, small_scene, small_frame):
        config = ZatelConfig(extrapolation="regression")
        result = Zatel(MOBILE_SOC, config).predict(small_scene, small_frame)
        self._assert_golden(result.metrics, self.GOLDEN["regression"])

    def test_coarse_exptmp_seeded(self, small_scene, small_frame):
        config = ZatelConfig(division="coarse", distribution="exptmp", seed=3)
        result = Zatel(MOBILE_SOC, config).predict(small_scene, small_frame)
        self._assert_golden(result.metrics, self.GOLDEN["coarse_exptmp"])

    def test_sampling_baseline(self, small_scene, small_frame):
        golden = {
            "ipc": 13.624338624338625,
            "cycles": 3780.0,
            "l1d_miss_rate": 0.11632047477744807,
            "l2_miss_rate": 0.4279661016949153,
            "rt_efficiency": 9.16609589041096,
            "dram_efficiency": 0.2961165048543689,
            "bw_utilization": 0.10758377425044091,
        }
        prediction = SamplingPredictor(MOBILE_SOC).predict(
            small_scene, small_frame, 0.30
        )
        self._assert_golden(prediction.metrics, golden)
