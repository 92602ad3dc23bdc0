"""Tests for the campaign engine: samplesheets, QC gates, waves, goldens.

The acceptance grid (2 library scenes + 2 procedural recipes + one
4-frame orbiting sequence, crossed with both Table II GPU configs) runs
once as a module fixture; the assertions then pin the three campaign
guarantees: library points stay byte-identical to the golden predict
metrics, shared stages execute once per unique scene, and the sequence
shows a nonzero cross-frame prediction-cache hit rate.
"""

import json
from pathlib import Path

import pytest

from repro.core.stages.campaign import (
    Campaign,
    CampaignPlanner,
    CampaignPoint,
    QCGates,
    load_samplesheet,
    load_samplesheet_document,
    parse_samplesheet,
)
from repro.core.stages.store import ArtifactStore
from repro.gpu import MOBILE_SOC, RTX_2060
from repro.scene.animation import SceneSequence
from repro.scene.registry import clear_scene_cache, resolve_scene
from repro.scene.spec import SceneSpec

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_predict.json").read_text()
)

CI_GATE = {"max_ci_half_width": 0.05}


def _sheet(points, **campaign):
    defaults = {"name": "t", "size": 12, "gpus": ["mobile"]}
    defaults.update(campaign)
    return {"campaign": defaults, "points": points}


# ---------------------------------------------------------------------------
# samplesheet schema
# ---------------------------------------------------------------------------


class TestSamplesheetSchema:
    def test_minimal_sheet_parses(self):
        campaign = parse_samplesheet(_sheet([{"scene": "SPRNG"}]))
        assert campaign.name == "t"
        assert len(campaign.points) == 1
        point = campaign.points[0]
        assert point.spec == SceneSpec.library("SPRNG")
        assert point.size == 12 and point.gpu.name == "MobileSoC"

    def test_not_a_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            parse_samplesheet([{"scene": "SPRNG"}])

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown samplesheet section"):
            parse_samplesheet({"points": [{"scene": "SPRNG"}], "rows": []})

    def test_unknown_campaign_field_rejected(self):
        with pytest.raises(ValueError, match="campaign: unknown field"):
            parse_samplesheet(
                {"campaign": {"sizes": 12}, "points": [{"scene": "SPRNG"}]}
            )

    def test_unknown_row_field_names_the_row(self):
        sheet = _sheet([{"scene": "SPRNG"}, {"scene": "BUNNY", "gppu": "x"}])
        with pytest.raises(ValueError, match=r"points\[1\]: unknown field"):
            parse_samplesheet(sheet)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="non-empty points"):
            parse_samplesheet({"points": []})

    def test_row_without_scene_rejected(self):
        with pytest.raises(ValueError, match=r"points\[0\].*scene"):
            parse_samplesheet(_sheet([{"mode": "zatel"}]))

    def test_gpu_and_gpus_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            parse_samplesheet(
                _sheet([{"scene": "SPRNG", "gpu": "mobile", "gpus": ["mobile"]}])
            )

    def test_unknown_gpu_names_the_row(self):
        with pytest.raises(ValueError, match=r"points\[0\]"):
            parse_samplesheet(_sheet([{"scene": "SPRNG", "gpu": "tpu"}]))

    def test_unknown_backend_rejected(self):
        # There is one tracer; the retired backend column is an unknown
        # field like any other.
        with pytest.raises(
            ValueError, match=r"points\[0\]: unknown field\(s\) 'backend'"
        ):
            parse_samplesheet(_sheet([{"scene": "SPRNG", "backend": "scalar"}]))
        with pytest.raises(ValueError, match=r"campaign: unknown field\(s\) 'backend'"):
            parse_samplesheet(
                {"campaign": {"backend": "packet"}, "points": [{"scene": "SPRNG"}]}
            )

    def test_unknown_config_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            parse_samplesheet(
                _sheet([{"scene": "SPRNG", "config": {"divsion": "fine"}}])
            )

    def test_unknown_qc_field_rejected(self):
        with pytest.raises(ValueError, match="unknown qc field"):
            parse_samplesheet(
                _sheet([{"scene": "SPRNG", "qc": {"min_cov": 0.5}}])
            )

    def test_qc_range_violation_names_the_row(self):
        with pytest.raises(ValueError, match=r"points\[0\]: min_coverage"):
            parse_samplesheet(
                _sheet([{"scene": "SPRNG", "qc": {"min_coverage": 2.0}}])
            )

    def test_bad_scene_recipe_names_the_row(self):
        with pytest.raises(ValueError, match=r"points\[0\]: unknown scene recipe"):
            parse_samplesheet(_sheet([{"scene": {"recipe": "fog"}}]))

    def test_gpus_expand_to_one_point_each(self):
        campaign = parse_samplesheet(
            _sheet([{"scene": "SPRNG", "gpus": ["mobile", "rtx2060"]}])
        )
        assert [p.gpu.name for p in campaign.points] == ["MobileSoC", "RTX2060"]
        assert {p.row for p in campaign.points} == {0}

    def test_sequence_expands_to_frame_points(self):
        campaign = parse_samplesheet(
            _sheet(
                [
                    {
                        "scene": {
                            "sequence": "saturation",
                            "frames": 3,
                            "knobs": {"level": 0.5},
                        }
                    }
                ]
            )
        )
        assert [p.spec.frame for p in campaign.points] == [0, 1, 2]
        assert all(p.spec.kind == "frame" for p in campaign.points)
        assert {p.row for p in campaign.points} == {0}

    def test_row_overrides_beat_campaign_defaults(self):
        campaign = parse_samplesheet(
            _sheet(
                [{"scene": "SPRNG", "size": 8, "seed": 7, "qc": CI_GATE}],
                size=24,
                qc={"min_coverage": 0.5},
            )
        )
        point = campaign.points[0]
        assert point.size == 8 and point.seed == 7
        assert point.gates == QCGates(max_ci_half_width=0.05)

    def test_campaign_fingerprint_is_content_addressed(self):
        a = parse_samplesheet(_sheet([{"scene": "SPRNG"}]))
        b = parse_samplesheet(_sheet([{"scene": "SPRNG"}]))
        c = parse_samplesheet(_sheet([{"scene": "SPRNG", "seed": 1}]))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestSamplesheetFiles:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "sheet.json"
        path.write_text(json.dumps(_sheet([{"scene": "SPRNG"}])))
        campaign = load_samplesheet(path)
        assert campaign.points[0].spec == SceneSpec.library("SPRNG")

    def test_json_default_name_is_stem(self, tmp_path):
        path = tmp_path / "nightly.json"
        path.write_text(json.dumps({"points": [{"scene": "SPRNG"}]}))
        assert load_samplesheet(path).name == "nightly"

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_samplesheet(path)

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must be a mapping"):
            load_samplesheet_document(path)

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "sheet.yaml"
        path.write_text("scene: SPRNG")
        with pytest.raises(ValueError, match="unknown samplesheet format"):
            load_samplesheet(path)

    def test_toml_samplesheet(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "grid.toml"
        path.write_text(
            "\n".join(
                [
                    "[campaign]",
                    'name = "grid"',
                    "size = 12",
                    'gpus = ["mobile", "rtx2060"]',
                    "",
                    "[[points]]",
                    'scene = "SPRNG"',
                    "",
                    "[[points]]",
                    'scene = { recipe = "saturation", knobs = { level = 0.4 } }',
                    "qc = { min_coverage = 0.9, on_violation = \"fail\" }",
                ]
            )
        )
        campaign = load_samplesheet(path)
        assert campaign.name == "grid"
        assert len(campaign.points) == 4  # 2 rows x 2 gpus
        assert campaign.points[2].spec.kind == "recipe"
        assert campaign.points[2].gates.on_violation == "fail"

    def test_invalid_toml_names_the_file(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "bad.toml"
        path.write_text("[campaign\nname=")
        with pytest.raises(ValueError, match="invalid TOML"):
            load_samplesheet(path)


# ---------------------------------------------------------------------------
# QC gates
# ---------------------------------------------------------------------------


class _FakeResult:
    def __init__(self, coverage=1.0, metrics=None, intervals=None):
        self.coverage = coverage
        self.metrics = metrics or {}
        self._intervals = intervals or {}

    def confidence_intervals(self):
        return self._intervals


class TestQCGates:
    def test_inactive_by_default(self):
        assert not QCGates().active
        assert QCGates().check(_FakeResult()) == []

    def test_on_violation_validated(self):
        with pytest.raises(ValueError, match="on_violation"):
            QCGates(on_violation="explode")

    def test_min_coverage_violation_message(self):
        gates = QCGates(min_coverage=0.9)
        violations = gates.check(_FakeResult(coverage=0.5))
        assert violations and "coverage" in violations[0]
        assert gates.check(_FakeResult(coverage=0.95)) == []

    def test_ci_gate_passes_tight_intervals(self):
        gates = QCGates(max_ci_half_width=0.10)
        result = _FakeResult(
            metrics={"cycles": 100.0}, intervals={"cycles": (95.0, 105.0)}
        )
        assert gates.check(result) == []

    def test_ci_gate_flags_wide_intervals(self):
        gates = QCGates(max_ci_half_width=0.01)
        result = _FakeResult(
            metrics={"cycles": 100.0}, intervals={"cycles": (80.0, 120.0)}
        )
        violations = gates.check(result)
        assert violations and "cycles" in violations[0]

    def test_ci_gate_violated_by_missing_intervals(self):
        # A precision demand the result cannot certify is a violation —
        # the point sampler must be replicated, not waved through.
        violations = QCGates(max_ci_half_width=0.05).check(_FakeResult())
        assert violations and "no confidence intervals" in violations[0]


# ---------------------------------------------------------------------------
# execution: verdicts, waves, propagation
# ---------------------------------------------------------------------------


def _frame_points(gates_by_frame, frames=3, size=10):
    """One sequence row with per-frame QC gates (programmatic campaign)."""
    sequence = SceneSequence.from_value(
        {
            "sequence": "saturation",
            "frames": frames,
            "knobs": {"level": 0.4},
            "seed": 5,
            "orbit_degrees": 6.0,
        }
    )
    return [
        CampaignPoint(
            spec=spec,
            gpu=MOBILE_SOC,
            size=size,
            gates=gates_by_frame.get(spec.frame, QCGates()),
            row=0,
        )
        for spec in sequence.frame_specs()
    ]


class TestCampaignExecution:
    def test_gate_trip_degrades_point(self):
        campaign = parse_samplesheet(
            _sheet([{"scene": "SPRNG", "qc": CI_GATE}], size=10)
        )
        result = CampaignPlanner().run(campaign)
        outcome = result.outcomes[0]
        assert outcome.verdict == "degraded"
        assert "no confidence intervals" in outcome.violations[0]
        assert result.succeeded  # degraded still counts as success

    def test_replicated_sampler_satisfies_ci_gate(self):
        campaign = parse_samplesheet(
            _sheet(
                [
                    {
                        "scene": "SPRNG",
                        "qc": {"max_ci_half_width": 10.0},
                        "config": {"sampler": "ranked_set", "replicates": 3},
                    }
                ],
                size=10,
            )
        )
        result = CampaignPlanner().run(campaign)
        assert result.outcomes[0].verdict == "pass"

    def test_failed_frame_skips_rest_of_row(self):
        points = _frame_points(
            {0: QCGates(max_ci_half_width=0.05, on_violation="fail")}
        )
        result = CampaignPlanner().run(Campaign(name="seq", points=tuple(points)))
        assert [o.verdict for o in result.outcomes] == [
            "failed", "skipped", "skipped",
        ]
        assert not result.succeeded
        assert "skipped" in result.outcomes[1].violations[0]

    def test_degraded_frame_taints_downstream_frames(self):
        points = _frame_points({0: QCGates(max_ci_half_width=0.05)})
        result = CampaignPlanner().run(Campaign(name="seq", points=tuple(points)))
        assert [o.verdict for o in result.outcomes] == [
            "degraded", "degraded", "degraded",
        ]
        assert "inherited" in result.outcomes[1].violations[0]

    def test_sequence_frames_execute_in_waves(self):
        points = _frame_points({})
        result = CampaignPlanner().run(Campaign(name="seq", points=tuple(points)))
        assert result.waves == 3
        assert all(o.verdict == "pass" for o in result.outcomes)

    def test_duplicate_points_share_all_stage_work(self):
        campaign = parse_samplesheet(
            _sheet([{"scene": "SPRNG"}, {"scene": "SPRNG"}], size=10)
        )
        result = CampaignPlanner().run(campaign)
        assert result.executions_of("profile") == 1
        assert result.executions_of("simulate_groups") == 1
        # The two points collapse to one set of DAG nodes.
        assert result.total_nodes == 2 * result.unique_nodes

    def test_rerun_over_reopened_store_runs_no_stage(self, tmp_path):
        from repro.harness import Runner

        campaign = parse_samplesheet(
            _sheet([{"scene": "SPRNG", "gpus": ["mobile", "rtx2060"]}], size=16)
        )
        first = Runner(cache_dir=tmp_path).campaign(campaign)
        assert first.counters.total_executions() > 0
        again = Runner(cache_dir=tmp_path).campaign(campaign)
        assert again.counters.total_executions() == 0
        assert again.counters.cache_hits == {"combine": len(campaign.points)}
        assert [o.verdict for o in again.outcomes] == ["pass", "pass"]

    def test_forked_workers_report_the_same_stage_executions(self):
        """Counters made in forked task processes reach the result.  The
        two points share no stage: under forked workers a stage shared
        by two points that run at the same time executes in each."""
        from repro.core.executor import ExecutionPolicy

        campaign = parse_samplesheet(
            _sheet(
                [
                    {"scene": "SPRNG", "gpu": "mobile"},
                    {"scene": "BUNNY", "gpu": "rtx2060"},
                ],
                size=16,
            )
        )
        serial = CampaignPlanner(policy=ExecutionPolicy(workers=1)).run(campaign)
        forked = CampaignPlanner(policy=ExecutionPolicy(workers=2)).run(campaign)
        assert len(serial.counters.executions) == 7
        assert forked.counters.executions == serial.counters.executions

    def test_failing_point_fails_alone(self, monkeypatch):
        from repro.core.stages import SamplingSimulateStage

        run = SamplingSimulateStage.run

        def flaky(self, ctx, **inputs):
            if self.fraction == 0.4:
                raise RuntimeError("injected stage failure")
            return run(self, ctx, **inputs)

        monkeypatch.setattr(SamplingSimulateStage, "run", flaky)
        campaign = parse_samplesheet(
            _sheet(
                [
                    {"scene": "SPRNG", "mode": "sampling", "fraction": f}
                    for f in (0.2, 0.4, 0.6)
                ],
                size=10,
            )
        )
        result = CampaignPlanner().run(campaign)
        assert [o.verdict for o in result.outcomes] == ["pass", "failed", "pass"]
        assert "injected stage failure" in result.outcomes[1].error
        assert len(result.failures) == 1
        assert not result.succeeded

    def test_scene_token_separates_workload_coordinates(self):
        spec = SceneSpec.library("SPRNG")
        a = CampaignPoint(spec=spec, gpu=MOBILE_SOC, size=10, seed=0)
        b = CampaignPoint(spec=spec, gpu=MOBILE_SOC, size=10, seed=1)
        assert a.scene_token() != b.scene_token()

    def test_campaign_needs_points(self):
        with pytest.raises(ValueError, match="at least one point"):
            Campaign(name="empty", points=())


# ---------------------------------------------------------------------------
# acceptance: the full grid, golden identity, dedup, sequence carry
# ---------------------------------------------------------------------------

ACCEPTANCE_SHEET = {
    "campaign": {
        "name": "acceptance",
        "size": 24,
        "spp": 1,
        "seed": 0,
        "gpus": ["mobile", "rtx2060"],
    },
    "points": [
        {"scene": "SPRNG"},
        {"scene": "BUNNY"},
        {"scene": {"recipe": "saturation", "knobs": {"level": 0.4}, "seed": 1}},
        {
            "scene": {
                "recipe": "clutter",
                "knobs": {"triangles_target": 1500},
                "seed": 3,
            }
        },
        {
            "scene": {
                "sequence": "saturation",
                "frames": 4,
                "knobs": {"level": 0.5},
                "seed": 2,
                "orbit_degrees": 12.0,
            }
        },
    ],
}


@pytest.fixture(scope="module")
def acceptance():
    campaign = parse_samplesheet(ACCEPTANCE_SHEET)
    return campaign, CampaignPlanner(store=ArtifactStore()).run(campaign)


class TestAcceptanceCampaign:
    def test_grid_shape(self, acceptance):
        campaign, result = acceptance
        # (2 library + 2 recipes + 4 sequence frames) x 2 GPUs.
        assert len(campaign.points) == 16
        assert len(result.outcomes) == 16
        assert result.waves == 4  # frame 0 wave + frames 1..3
        assert result.succeeded
        assert result.verdict_counts()["pass"] == 16

    def test_library_points_byte_identical_to_golden(self, acceptance):
        campaign, result = acceptance
        meta = GOLDEN["meta"]
        assert (meta["size"], meta["spp"], meta["seed"]) == (24, 1, 0)
        checked = 0
        for outcome in result.outcomes:
            point = outcome.point
            if point.spec.kind != "library" or point.gpu.name != meta["gpu"]:
                continue
            expected = GOLDEN["metrics"][point.spec.name]
            assert set(outcome.value.metrics) == set(expected)
            for name, value in expected.items():
                assert outcome.value.metrics[name] == value, (
                    f"{point.spec.name}.{name} drifted inside the campaign"
                )
            checked += 1
        assert checked == 2  # SPRNG and BUNNY on the golden GPU

    def test_shared_stages_execute_once_per_unique_scene(self, acceptance):
        _, result = acceptance
        # 8 unique scenes (2 library + 2 recipes + 4 frames); profile and
        # quantize are GPU-independent, so both GPUs share them.
        assert result.executions_of("profile") == 8
        assert result.executions_of("quantize") == 8
        # Per-(scene, gpu) stages run for all 16 points.
        assert result.executions_of("simulate_groups") == 16
        # One downscale per distinct (gpu, config).
        assert result.executions_of("downscale") == 2
        assert result.total_nodes > result.unique_nodes

    def test_campaign_report_is_json_able(self, acceptance):
        from repro.harness.reporting import campaign_report

        _, result = acceptance
        report = campaign_report(result)
        encoded = json.loads(json.dumps(report))
        assert encoded["succeeded"] is True
        assert encoded["campaign"] == "acceptance"
        assert len(encoded["points"]) == 16
        assert encoded["dag"]["deduplicated_nodes"] > 0


# ---------------------------------------------------------------------------
# recipe specs cross process boundaries
# ---------------------------------------------------------------------------


def test_recipe_spec_pickles_and_rebuilds_the_same_scene():
    # Job processes receive specs over a pipe and rebuild scenes from
    # them alone, with no registry state from the sending process.
    import pickle

    spec = SceneSpec.recipe("saturation", {"level": 0.3}, seed=4)
    scene = resolve_scene(spec)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.fingerprint() == spec.fingerprint()
    clear_scene_cache()
    rebuilt = resolve_scene(clone)
    assert rebuilt is not scene
    assert rebuilt.spec == spec
    assert [
        (t.v0.tolist(), t.v1.tolist(), t.v2.tolist(), t.material_id)
        for t in rebuilt.triangles
    ] == [
        (t.v0.tolist(), t.v1.tolist(), t.v2.tolist(), t.material_id)
        for t in scene.triangles
    ]
