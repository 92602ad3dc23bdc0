"""Cycle-simulator benchmark: fast serial loop vs reference vs sharded.

Times the cycle simulation *alone* (tracing and kernel compilation happen
once per scene outside the timed region) for three engines:

* ``reference`` — the original straight-line event loop
  (:meth:`~repro.gpu.simulator.CycleSimulator.run_reference`);
* ``serial`` — the fast dispatch-table loop behind the default backend;
* ``sharded`` — the epoch-synchronized parallel backend at each
  requested shard count.

The reference is *not* a frozen copy of the simulator: it shares ``SM``,
``RTUnit``, ``Cache`` and ``MSHRTable`` with the fast loop, so a change to
the RT traversal or memory path speeds up (or slows down) both, and
``fast_speedup`` only measures the event loop's own gain.  Each scene
therefore also reports ``serial_vs_baseline``: the committed baseline's
serial seconds over this run's, which is above 1 when the simulator got
faster than the baseline (same-host runs only; it never gates).  The
memory path's *output* is pinned separately by
``tests/data/sim_stats_golden.json``.

Correctness rides along with the timings and is what gates CI:

* the fast loop must be *byte-identical* to the reference loop;
* sharding must keep the additive counters exact and hold every
  timing-derived metric inside the documented drift tolerance
  (:data:`repro.gpu.parallel.DRIFT_TOLERANCE`);
* the deterministic **work-unit speedup** (serial work over the largest
  shard's work) must reach 2x at four shards on the headline scene —
  the machine-independent stand-in for parallel speedup, since CI
  containers may expose a single core.

Wall-clock seconds and ratios are recorded but never gate.  Results are
written to ``BENCH_sim.json``; CI compares them against
``benchmarks/baselines/BENCH_sim.baseline.json`` via
``check_bench_regression.py``.

.. code-block:: bash

    PYTHONPATH=src python benchmarks/bench_sim.py --quick
    PYTHONPATH=src python benchmarks/bench_sim.py --profile sim_profile.txt
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.gpu import MOBILE_SOC, CycleSimulator, ShardedCycleSimulator, compile_kernel
from repro.gpu.parallel import DRIFT_TOLERANCE, EXACT_COUNTERS, plan_shards
from repro.scene import make_scene
from repro.tracer import FunctionalTracer, RenderSettings

#: The headline scene/plane of the acceptance target (>= 2x work-unit
#: speedup at four shards).
HEADLINE_SCENE = "SPRNG"
SIZE = 128
#: Traversal-heavy scenes added in full (non ``--quick``) mode.
FULL_SCENES = ("BUNNY", "SPNZA")

#: Shard counts exercised in full mode; quick mode keeps only the last.
SHARD_COUNTS = (2, 4)

#: Work-unit speedup the headline scene must reach at four shards.
TARGET_WORK_UNIT_SPEEDUP = 2.0

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


def _stats_equal(a, b) -> bool:
    return replace(a, host_seconds=0.0) == replace(b, host_seconds=0.0)


def _drift(sharded, exact) -> dict:
    return {
        name: abs(getattr(sharded, name) - getattr(exact, name))
        / max(abs(getattr(exact, name)), 1e-12)
        for name in DRIFT_TOLERANCE
    }


def bench_scene(
    name: str, size: int, shard_counts, repeats: int,
    baseline_seconds: float | None = None,
) -> dict:
    """One scene: fast vs reference identity, then each shard count."""
    scene, warps = _compile(name, size)
    sim = CycleSimulator(MOBILE_SOC, scene.addresses)

    ref_seconds, ref_stats = _best_of(repeats, sim.run_reference, warps)
    fast_seconds, fast_stats = _best_of(repeats, sim.run, warps)
    entry: dict = {
        "scene": name,
        "width": size,
        "height": size,
        "warps": len(warps),
        "reference": {"seconds": ref_seconds},
        "serial": {
            "seconds": fast_seconds,
            "cycles": fast_stats.cycles,
            "work_units": fast_stats.work_units,
        },
        "fast_identical": _stats_equal(fast_stats, ref_stats),
        "fast_speedup": ref_seconds / fast_seconds,
        "serial_vs_baseline": (
            baseline_seconds / fast_seconds if baseline_seconds else None
        ),
        "sharded": {},
    }

    for shards in shard_counts:
        config = replace(MOBILE_SOC, sim_backend="sharded", sim_shards=shards)
        parallel = ShardedCycleSimulator(config, scene.addresses)
        seconds, stats = _best_of(repeats, parallel.run, warps)
        run = parallel.last_run
        drift = _drift(stats, fast_stats)
        entry["sharded"][str(shards)] = {
            "seconds": seconds,
            "planned_shards": run["shards"],
            "epochs": run["epochs"],
            "mode": run["mode"],
            "cycles": stats.cycles,
            "work_units": stats.work_units,
            "shard_work_units": run["shard_work_units"],
            # Deterministic parallel-speedup proxy: the serial work
            # divided by the critical path (the busiest shard).
            "work_unit_speedup": fast_stats.work_units
            / max(run["shard_work_units"]),
            "wall_speedup": fast_seconds / seconds,
            "exact_counters_match": all(
                getattr(stats, field) == getattr(fast_stats, field)
                for field in EXACT_COUNTERS
            ),
            "drift": drift,
            "drift_ok": all(
                drift[metric] <= DRIFT_TOLERANCE[metric] for metric in drift
            ),
        }
    return entry


def run(quick: bool) -> dict:
    """The whole experiment; ``quick`` trims scenes and repeats for CI."""
    scenes = (HEADLINE_SCENE,) if quick else (HEADLINE_SCENE,) + FULL_SCENES
    shard_counts = SHARD_COUNTS[-1:] if quick else SHARD_COUNTS
    repeats = 1 if quick else 3
    baseline_seconds = _baseline_serial_seconds()
    payload = {
        "benchmark": "sim_backends",
        "quick": quick,
        "gpu": MOBILE_SOC.name,
        "planned_shards_at_max": plan_shards(
            replace(MOBILE_SOC, sim_shards=SHARD_COUNTS[-1])
        ),
        "drift_tolerance": dict(DRIFT_TOLERANCE),
        "target_work_unit_speedup": TARGET_WORK_UNIT_SPEEDUP,
        "scenes": [
            bench_scene(
                name, SIZE, shard_counts, repeats, baseline_seconds.get(name)
            )
            for name in scenes
        ],
    }
    headline = payload["scenes"][0]["sharded"][str(SHARD_COUNTS[-1])]
    payload["headline_work_unit_speedup"] = headline["work_unit_speedup"]
    payload["identical"] = bool(
        all(e["fast_identical"] for e in payload["scenes"])
        and all(
            s["exact_counters_match"] and s["drift_ok"]
            for e in payload["scenes"]
            for s in e["sharded"].values()
        )
        and payload["headline_work_unit_speedup"] >= TARGET_WORK_UNIT_SPEEDUP
    )
    return payload


def profile_serial(out_path: str) -> None:
    """cProfile the fast serial engine on the headline scene (nightly
    artifact: where do cycle-sim milliseconds go)."""
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
        lines.append(
            f"{e['scene']} {e['width']}x{e['height']} ({e['warps']} warps): "
            f"reference {e['reference']['seconds'] * 1e3:.1f}ms, "
            f"fast {e['serial']['seconds'] * 1e3:.1f}ms "
            f"({e['fast_speedup']:.2f}x, identical={e['fast_identical']})"
        )
        if e["serial_vs_baseline"] is not None:
            lines.append(
                f"  serial vs baseline: {e['serial_vs_baseline']:.2f}x "
                f"(baseline seconds / this run's)"
            )
        for shards, s in sorted(e["sharded"].items(), key=lambda kv: int(kv[0])):
            lines.append(
                f"  sharded x{shards} ({s['mode']}, {s['epochs']} epochs): "
                f"{s['seconds'] * 1e3:.1f}ms wall, "
                f"work-unit speedup {s['work_unit_speedup']:.2f}x, "
                f"exact={s['exact_counters_match']}, "
                f"drift_ok={s['drift_ok']} "
                f"(cycles drift {s['drift']['cycles']:.3%})"
            )
    lines.append(
        f"headline work-unit speedup at {SHARD_COUNTS[-1]} shards: "
        f"{payload['headline_work_unit_speedup']:.2f}x "
        f"(target {payload['target_work_unit_speedup']:.1f}x)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="headline scene, max shard count only (the CI gating mode)",
    )
    parser.add_argument(
        "--out", default="BENCH_sim.json", help="output JSON path"
    )
    parser.add_argument(
        "--profile", metavar="PATH", default=None,
        help="also cProfile the fast serial engine and write the hot-path "
             "report to PATH (nightly artifact)",
    )
    args = parser.parse_args(argv)
    payload = run(args.quick)
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(_report(payload))
    print(f"wrote {args.out}")
    if args.profile:
        profile_serial(args.profile)
    if not payload["identical"]:
        print("DIVERGENCE: simulator backends disagree", file=sys.stderr)
        return 1
    return 0


def test_sim_backends(benchmark):
    """Pytest entry: quick mode must hold every correctness gate."""
    payload = benchmark.pedantic(lambda: run(quick=True), rounds=1, iterations=1)
    assert all(e["fast_identical"] for e in payload["scenes"])
    for entry in payload["scenes"]:
        for s in entry["sharded"].values():
            assert s["exact_counters_match"]
            assert s["drift_ok"]
    assert payload["headline_work_unit_speedup"] >= TARGET_WORK_UNIT_SPEEDUP


if __name__ == "__main__":
    sys.exit(main())
