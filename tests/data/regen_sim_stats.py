"""Regenerate sim_stats_golden.json: full simulator output on fixed runs.

This fixture is the simulator's oracle.  It pins every ``SimulationStats``
field, plus a digest of the telemetry snapshots and timeline events, for
each library scene on both GPU presets under both warp schedulers.  Extra
runs cover telemetry+timeline capture under both schedulers, RT
prefetching, and one RT slot per unit (heavy warp parking and waking).
Run only after an *intentional* timing-model change, and say so in the
commit:

    PYTHONPATH=src python tests/data/regen_sim_stats.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.gpu import MOBILE_SOC, RTX_2060, CycleSimulator, compile_kernel  # noqa: E402
from repro.gpu.stats import SimulationStats  # noqa: E402
from repro.scene.library import SCENE_NAMES, make_scene  # noqa: E402
from repro.tracer.tracer import RenderSettings  # noqa: E402
from tests.reference_tracer import ReferenceTracer  # noqa: E402

#: ``backend`` names the tracer the fixture was captured with: the
#: scalar one, kept as the reference tracer (``tests/reference_tracer.py``).
META = {"size": 24, "spp": 1, "seed": 0, "backend": "scalar"}

GPUS = {"mobile": MOBILE_SOC, "rtx2060": RTX_2060}

#: Fields that are not simulation output (host wall-clock, telemetry
#: object); telemetry is pinned separately through :func:`telemetry_digest`.
SKIPPED_FIELDS = ("host_seconds", "telemetry")

#: ``run id -> (scene, gpu key, GPUConfig overrides)``.
RUNS = {
    f"{scene}/{gpu}/{scheduler}": (scene, gpu, {"warp_scheduler": scheduler})
    for scene in SCENE_NAMES
    for gpu in GPUS
    for scheduler in ("gto", "lrr")
}
RUNS["SPNZA/rtx2060/telemetry"] = (
    "SPNZA", "rtx2060", {"telemetry_interval": 500, "timeline_trace": True},
)
RUNS["BUNNY/mobile/prefetch2"] = ("BUNNY", "mobile", {"rt_prefetch_depth": 2})
RUNS["BUNNY/mobile/rtslots1"] = ("BUNNY", "mobile", {"rt_max_warps": 1})
RUNS["SPNZA/rtx2060/telemetry-lrr"] = (
    "SPNZA", "rtx2060",
    {"telemetry_interval": 500, "timeline_trace": True, "warp_scheduler": "lrr"},
)


def trace_warps(scene_name: str) -> tuple:
    """The scene's address map and full-frame warps at the fixture size."""
    scene = make_scene(scene_name)
    settings = RenderSettings(
        width=META["size"], height=META["size"],
        samples_per_pixel=META["spp"], seed=META["seed"],
    )
    frame = ReferenceTracer(scene, settings).trace_frame()
    return scene.addresses, compile_kernel(
        frame, settings.all_pixels(), scene.addresses
    )


def telemetry_digest(stats: SimulationStats) -> dict | None:
    """Snapshot/event counts plus a SHA-256 over their exact ``repr``."""
    record = stats.telemetry
    if record is None:
        return None
    blob = repr((record.interval, record.snapshots, record.events))
    return {
        "snapshots": len(record.snapshots),
        "events": len(record.events),
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def summarize(stats: SimulationStats) -> dict:
    """Every simulation-output field of a run, JSON-ready."""
    out = {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name not in SKIPPED_FIELDS
    }
    out["telemetry"] = telemetry_digest(stats)
    return out


def simulate(run_id: str, warps_by_scene: dict) -> dict:
    """Run one fixture entry (tracing its scene on first use)."""
    scene_name, gpu, overrides = RUNS[run_id]
    if scene_name not in warps_by_scene:
        warps_by_scene[scene_name] = trace_warps(scene_name)
    addresses, warps = warps_by_scene[scene_name]
    config = dataclasses.replace(GPUS[gpu], **overrides)
    return summarize(CycleSimulator(config, addresses).run(warps))


def main() -> None:
    warps_by_scene: dict = {}
    runs = {}
    for run_id in RUNS:
        runs[run_id] = simulate(run_id, warps_by_scene)
        print(f"{run_id}: cycles={runs[run_id]['cycles']}")
    out = Path(__file__).parent / "sim_stats_golden.json"
    out.write_text(
        json.dumps({"meta": META, "runs": runs}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
