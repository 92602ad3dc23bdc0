"""Regenerate fastpath_reference.json: the small test scene's full stats.

The fixture pins ``CycleSimulator.run`` on the 32x32 small scene of
``tests/conftest.py`` (Mobile SoC) to the output of the original
straight-line reference event loop, under both warp schedulers, with RT
prefetching, and with telemetry snapshots and timeline events (which
observe mid-run counter state, not just final sums).  Each run is
summarized like ``sim_stats_golden.json``: every ``SimulationStats``
field plus a telemetry digest.  Run only after an *intentional*
timing-model change, and say so in the commit:

    PYTHONPATH=src python tests/data/regen_fastpath_reference.py
"""

import dataclasses
import importlib.util
import json
from pathlib import Path

from repro.gpu import MOBILE_SOC, CycleSimulator, compile_kernel
from repro.tracer import FunctionalTracer

DATA = Path(__file__).parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


conftest = _load("_fastpath_conftest", DATA.parent / "conftest.py")
regen_sim_stats = _load("_fastpath_regen_sim_stats", DATA / "regen_sim_stats.py")

#: ``run id -> MOBILE_SOC overrides``.
RUNS = {
    "gto": {"warp_scheduler": "gto"},
    "lrr": {"warp_scheduler": "lrr"},
    "prefetch2": {"rt_prefetch_depth": 2},
    "telemetry-gto": {
        "warp_scheduler": "gto", "telemetry_interval": 200, "timeline_trace": True,
    },
}


def small_warps(scene, settings, frame) -> list:
    return compile_kernel(frame, settings.all_pixels(), scene.addresses)


def simulate(run_id: str, scene, settings, frame) -> dict:
    """One fixture entry, summarized like ``sim_stats_golden.json``."""
    config = dataclasses.replace(MOBILE_SOC, **RUNS[run_id])
    stats = CycleSimulator(config, scene.addresses).run(
        small_warps(scene, settings, frame)
    )
    return regen_sim_stats.summarize(stats)


def main() -> None:
    scene, settings = conftest.make_small_scene(), conftest.SMALL_SETTINGS
    frame = FunctionalTracer(scene, settings).trace_frame()
    runs = {}
    for run_id in RUNS:
        runs[run_id] = simulate(run_id, scene, settings, frame)
        print(f"{run_id}: cycles={runs[run_id]['cycles']}")
    out = DATA / "fastpath_reference.json"
    out.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
