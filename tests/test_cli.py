"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_runner(tmp_path, monkeypatch):
    """Point the shared runner's cache at a temp dir so CLI tests don't
    write into the repo cache (scenes stay process-cached regardless)."""
    import repro.harness.runner as runner_module

    fresh = runner_module.Runner(cache_dir=tmp_path)
    monkeypatch.setattr(runner_module, "_shared", fresh)
    yield


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "scenes", "configs", "render", "heatmap", "simulate",
            "predict", "campaign",
        ):
            assert command in text


class TestInformational:
    def test_scenes_lists_library(self, capsys):
        assert main(["scenes"]) == 0
        out = capsys.readouterr().out
        assert "PARK" in out and "SPRNG" in out

    def test_configs_show_presets_and_downscaling(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "MobileSoC" in out and "RTX2060" in out
        assert "K = 4" in out and "K = 6" in out


class TestImageCommands:
    def test_render_writes_ppm(self, tmp_path, capsys):
        out = tmp_path / "img.ppm"
        assert main(
            ["render", "SPRNG", "--size", "16", "--out", str(out)]
        ) == 0
        assert out.read_bytes().startswith(b"P6")

    def test_heatmap_quantized(self, tmp_path, capsys):
        out = tmp_path / "hm.ppm"
        code = main(
            ["heatmap", "SPRNG", "--size", "16", "--quantize", "4",
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "quantized to" in capsys.readouterr().out


class TestSimulationCommands:
    def test_simulate_prints_metrics(self, capsys):
        assert main(["simulate", "SPRNG", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "ipc" in out and "cycles" in out

    def test_predict_plain(self, capsys):
        assert main(["predict", "SPRNG", "--size", "32"]) == 0
        out = capsys.readouterr().out
        assert "K=4" in out

    def test_predict_compare(self, capsys):
        assert main(["predict", "SPRNG", "--size", "32", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "full sim" in out

    def test_predict_with_fraction_and_coarse(self, capsys):
        code = main(
            ["predict", "SPRNG", "--size", "32", "--division", "coarse",
             "--fraction", "0.5"]
        )
        assert code == 0
        assert "traced fraction 50%" in capsys.readouterr().out

    def test_predict_json(self, capsys):
        import json

        from repro.gpu import EXTENDED_METRICS, METRICS

        assert main(["predict", "SPRNG", "--size", "32", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scene"] == "SPRNG"
        assert payload["degraded"] is False
        assert payload["coverage"] == 1.0
        assert payload["failures"] == []
        assert set(payload["metrics"]) == set(METRICS) | set(EXTENDED_METRICS)

    def test_predict_json_compare_includes_errors(self, capsys):
        import json

        assert (
            main(["predict", "SPRNG", "--size", "32", "--json", "--compare"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["speedup"] > 1.0
        assert set(payload["errors"]) == set(payload["full_sim"])

    def test_predict_adaptive(self, capsys):
        assert main(["predict", "SPRNG", "--size", "32", "--adaptive"]) == 0
        assert "traced fraction" in capsys.readouterr().out

    def test_predict_fault_tolerance_flags_parse(self):
        args = build_parser().parse_args(
            ["predict", "PARK", "--workers", "2", "--timeout", "30",
             "--retries", "1", "--resume"]
        )
        assert args.workers == 2
        assert args.timeout == 30.0
        assert args.retries == 1
        assert args.resume is True
        assert args.checkpoint_dir is None

    def test_predict_checkpoints_and_resumes(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        first = main(
            ["predict", "SPRNG", "--size", "32",
             "--checkpoint-dir", str(ckpt)]
        )
        assert first == 0
        assert sorted(p.name for p in ckpt.iterdir()) == [
            f"group_{i:04d}.pkl" for i in range(4)
        ]
        first_out = capsys.readouterr().out
        # Resuming replays the checkpoints and prints the same summary.
        again = main(
            ["predict", "SPRNG", "--size", "32", "--resume",
             "--checkpoint-dir", str(ckpt)]
        )
        assert again == 0
        assert capsys.readouterr().out == first_out

    def test_simulate_with_config_file(self, capsys):
        from pathlib import Path

        ini = Path(__file__).resolve().parents[1] / "configs" / "rtx2060.ini"
        assert main(
            ["simulate", "SPRNG", "--size", "16", "--gpu", str(ini)]
        ) == 0
        assert "RTX2060" in capsys.readouterr().out


class TestCampaignCommand:
    def test_campaign_run_prints_report(self, tmp_path, capsys):
        import json

        sheet = tmp_path / "c.json"
        sheet.write_text(
            json.dumps(
                {
                    "campaign": {"name": "clirun", "size": 10},
                    "points": [
                        {"scene": "SPRNG"},
                        {
                            "scene": {
                                "recipe": "saturation",
                                "knobs": {"level": 0.2},
                                "seed": 1,
                            }
                        },
                    ],
                }
            )
        )
        out_file = tmp_path / "report.json"
        code = main(["campaign", "run", str(sheet), "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "clirun" in out and "pass" in out
        report = json.loads(out_file.read_text())
        assert report["succeeded"] is True
        assert len(report["points"]) == 2

    def test_campaign_run_invalid_sheet_is_usage_error(self, tmp_path, capsys):
        sheet = tmp_path / "bad.json"
        sheet.write_text('{"points": [{"scene": "NOPE"}]}')
        assert main(["campaign", "run", str(sheet)]) == 2
        assert "NOPE" in capsys.readouterr().err

    def test_campaign_status_requires_remote(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "status", "j-1"])


class TestTraceCommands:
    def test_trace_export_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "f.ztrace"
        assert main(["trace", "SPRNG", "--size", "16", "--out", str(out)]) == 0
        assert out.exists()
        assert main(["inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "SPRNG" in text and "node visits" in text

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.ztrace"
        bad.write_bytes(b"not a trace")
        assert main(["inspect", str(bad)]) == 2
        assert "not a .ztrace" in capsys.readouterr().err

    def test_extra_scene_accessible(self, capsys):
        assert main(["simulate", "CRNL", "--size", "16"]) == 0
        assert "cycles" in capsys.readouterr().out


class TestErrorHandling:
    def test_unknown_scene_is_reported(self, capsys):
        assert main(["simulate", "NOPE", "--size", "16"]) == 2
        assert "unknown scene" in capsys.readouterr().err

    def test_unknown_gpu_is_reported(self, capsys):
        assert main(
            ["simulate", "SPRNG", "--size", "16", "--gpu", "a100"]
        ) == 2
        assert "unknown GPU preset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "SPRNG", "--backend", "scalar"],
            ["sweep", "SPRNG"],
        ],
        ids=["backend-flag", "sweep-command"],
    )
    def test_retired_options_are_usage_errors(self, argv, capsys):
        # One tracer and no sweep alias: both are argparse usage errors.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err
