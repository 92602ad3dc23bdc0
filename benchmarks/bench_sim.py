"""Cycle-simulator benchmark: serial wall-clock seconds per scene.

Times the cycle simulation *alone* (tracing and kernel compilation happen
once per scene outside the timed region) and records each scene's
deterministic ``cycles`` and ``work_units`` next to the seconds.

Each scene also reports ``serial_vs_baseline``: the committed baseline's
serial seconds over this run's, which is above 1 when the simulator got
faster than the baseline (same-host runs only; it never gates).  The
simulator's full output is pinned separately by
``tests/data/sim_stats_golden.json``.

What gates CI is the exact ``cycles``/``work_units`` match against
``benchmarks/baselines/BENCH_sim.baseline.json`` (checked by
``check_bench_regression.py``); wall-clock seconds never gate.  Results
are written to ``BENCH_sim.json``.

.. code-block:: bash

    PYTHONPATH=src python benchmarks/bench_sim.py --quick
    PYTHONPATH=src python benchmarks/bench_sim.py --profile sim_profile.txt
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.gpu import MOBILE_SOC, CycleSimulator, compile_kernel
from repro.scene import make_scene
from repro.tracer import FunctionalTracer, RenderSettings

#: The scene quick mode (CI) runs.
HEADLINE_SCENE = "SPRNG"
SIZE = 128
#: Traversal-heavy scenes added in full (non ``--quick``) mode.
FULL_SCENES = ("BUNNY", "SPNZA")

#: Committed payload whose serial seconds ``serial_vs_baseline`` divides.
BASELINE = Path(__file__).parent / "baselines" / "BENCH_sim.baseline.json"


def _baseline_serial_seconds() -> dict:
    """Scene -> serial seconds in the committed baseline."""
    payload = json.loads(BASELINE.read_text())
    return {e["scene"]: e["serial"]["seconds"] for e in payload["scenes"]}


def _compile(name: str, size: int):
    scene = make_scene(name)
    settings = RenderSettings(
        width=size, height=size, samples_per_pixel=1, seed=0
    )
    frame = FunctionalTracer(scene, settings).trace_frame()
    return scene, compile_kernel(frame, settings.all_pixels(), scene.addresses)


def _best_of(repeats: int, fn, warps):
    """Best-of-N wall clock plus the (deterministic) final stats."""
    best = float("inf")
    stats = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        stats = fn(list(warps))
        best = min(best, time.perf_counter() - t0)
    return best, stats


def bench_scene(
    name: str, size: int, repeats: int, baseline_seconds: float | None = None,
) -> dict:
    """One scene: best-of-``repeats`` serial seconds and the run's counts."""
    scene, warps = _compile(name, size)
    sim = CycleSimulator(MOBILE_SOC, scene.addresses)
    seconds, stats = _best_of(repeats, sim.run, warps)
    return {
        "scene": name,
        "width": size,
        "height": size,
        "warps": len(warps),
        "serial": {
            "seconds": seconds,
            "cycles": stats.cycles,
            "work_units": stats.work_units,
        },
        "serial_vs_baseline": (
            baseline_seconds / seconds if baseline_seconds else None
        ),
    }


def run(quick: bool) -> dict:
    """The whole experiment; ``quick`` trims scenes and repeats for CI."""
    scenes = (HEADLINE_SCENE,) if quick else (HEADLINE_SCENE,) + FULL_SCENES
    repeats = 1 if quick else 3
    baseline_seconds = _baseline_serial_seconds()
    return {
        "benchmark": "cycle_sim",
        "quick": quick,
        "gpu": MOBILE_SOC.name,
        "scenes": [
            bench_scene(name, SIZE, repeats, baseline_seconds.get(name))
            for name in scenes
        ],
    }


def profile_serial(out_path: str) -> None:
    """cProfile the simulator on the headline scene (nightly artifact:
    where do cycle-sim milliseconds go)."""
    import cProfile
    import io
    import pstats

    scene, warps = _compile(HEADLINE_SCENE, SIZE)
    sim = CycleSimulator(MOBILE_SOC, scene.addresses)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(list(warps))
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(40)
    stats.sort_stats("tottime").print_stats(40)
    Path(out_path).write_text(buffer.getvalue())
    print(f"wrote profile to {out_path}")


def _report(payload: dict) -> str:
    lines = []
    for e in payload["scenes"]:
        serial = e["serial"]
        lines.append(
            f"{e['scene']} {e['width']}x{e['height']} ({e['warps']} warps): "
            f"{serial['seconds'] * 1e3:.1f}ms, cycles {serial['cycles']:.0f}, "
            f"work units {serial['work_units']}"
        )
        if e["serial_vs_baseline"] is not None:
            lines.append(
                f"  serial vs baseline: {e['serial_vs_baseline']:.2f}x "
                f"(baseline seconds / this run's)"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="headline scene only, one repeat (the CI mode)",
    )
    parser.add_argument(
        "--out", default="BENCH_sim.json", help="output JSON path"
    )
    parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="also cProfile the simulator and write the hot-path report "
             "to PATH (nightly artifact)",
    )
    args = parser.parse_args(argv)
    payload = run(args.quick)
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(_report(payload))
    print(f"wrote {args.out}")
    if args.profile:
        profile_serial(args.profile)
    return 0


def test_cycle_sim(benchmark):
    """Pytest entry: quick mode reproduces the baseline's exact counts."""
    payload = benchmark.pedantic(lambda: run(quick=True), rounds=1, iterations=1)
    baseline = json.loads(BASELINE.read_text())
    base = {e["scene"]: e["serial"] for e in baseline["scenes"]}
    for entry in payload["scenes"]:
        for field in ("cycles", "work_units"):
            assert entry["serial"][field] == base[entry["scene"]][field]


if __name__ == "__main__":
    sys.exit(main())
