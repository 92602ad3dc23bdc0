"""Tracing-backend benchmark: scalar vs packet (wavefront) throughput.

Times both backends on library scenes — ``trace_frame`` (records on, the
profiling path) and ``render_image`` (records off, path-prediction cache
on) — verifies their outputs are *identical*, and measures the cold
end-to-end ``Zatel.predict`` wall-clock (functional trace + prediction)
per backend.  Each benched scene also records its best-of-3
``build_bvh`` seconds and ``frame_bytes_per_entry``: the bytes a
packet-traced frame retains (tracemalloc) per node or triangle record
entry.  Results are written to ``BENCH_tracer.json``.

Run as a script (what CI's perf-smoke step does):

.. code-block:: bash

    PYTHONPATH=src python benchmarks/bench_tracer.py --quick

The exit code reflects *divergence only* — a slow machine never fails
the benchmark, different pixels/images/metrics do.  Under pytest the
same experiment runs once and asserts equivalence the same way.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core import Zatel
from repro.gpu import MOBILE_SOC
from repro.scene import build_bvh, make_scene
from repro.tracer import FunctionalTracer, RenderSettings

#: The headline scene/plane of the acceptance target (>= 5x rays/sec).
HEADLINE_SCENE = "SPRNG"
SIZE = 128
#: Traversal-heavy scenes added in full (non ``--quick``) mode.
FULL_SCENES = ("BUNNY", "SPNZA")

BACKENDS = ("scalar", "packet")

#: ``build_bvh`` runs per scene; the best one is recorded.
BUILD_REPEATS = 3


def _total_rays(frame) -> int:
    return sum(len(t.segments) for t in frame.pixels.values())


def _settings(backend: str, size: int) -> RenderSettings:
    return RenderSettings(
        width=size, height=size, samples_per_pixel=1, seed=0,
        tracing_backend=backend,
    )


def _check_identical(scene, size: int) -> bool:
    """Exact scalar-vs-packet equivalence of one untimed trace + render."""
    frames = {}
    images = {}
    for backend in BACKENDS:
        tracer = FunctionalTracer(scene, _settings(backend, size))
        frames[backend] = tracer.trace_frame()
        images[backend] = tracer.render_image()
    return bool(
        set(frames["scalar"].pixels) == set(frames["packet"].pixels)
        and all(
            frames["scalar"].pixels[k] == frames["packet"].pixels[k]
            for k in frames["scalar"].pixels
        )
        and np.array_equal(images["scalar"], images["packet"])
    )


def _frame_bytes_per_entry(scene, size: int) -> float:
    """Bytes a packet-traced frame retains per node or triangle entry.

    Measured with tracemalloc after ``gc.collect()``; the scene's packed
    BVH must already be built (it is shared by every frame).
    """
    tracer = FunctionalTracer(scene, _settings("packet", size))
    gc.collect()
    tracemalloc.start()
    try:
        frame = tracer.trace_frame()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(
        len(s.nodes) + len(s.tris)
        for trace in frame.pixels.values()
        for s in trace.segments
    )
    return retained / entries


def bench_scene(name: str, size: int, repeats: int) -> dict:
    """Trace and render one scene with both backends; best-of-N timings.

    The equivalence check runs first so the timed region retains no
    stale frame (hundreds of thousands of live segment objects would
    skew the garbage collector against whichever backend runs second).
    """
    scene = make_scene(name)
    scene.packed_bvh  # build the SoA arrays outside the timed region
    entry: dict = {"scene": name, "width": size, "height": size, "spp": 1}
    build_best = float("inf")
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        build_bvh(scene.triangles)
        build_best = min(build_best, time.perf_counter() - t0)
    entry["build_seconds"] = build_best
    entry["identical"] = _check_identical(scene, size)
    entry["frame_bytes_per_entry"] = _frame_bytes_per_entry(scene, size)
    for backend in BACKENDS:
        tracer = FunctionalTracer(scene, _settings(backend, size))
        gc.collect()
        trace_best = float("inf")
        rays = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            frame = tracer.trace_frame()
            trace_best = min(trace_best, time.perf_counter() - t0)
            rays = _total_rays(frame)
            del frame
        render_best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            image = tracer.render_image()
            render_best = min(render_best, time.perf_counter() - t0)
            del image
        entry[backend] = {
            "trace_seconds": trace_best,
            "render_seconds": render_best,
            "rays": rays,
            "rays_per_sec": rays / trace_best,
        }
    entry["trace_speedup"] = (
        entry["scalar"]["trace_seconds"] / entry["packet"]["trace_seconds"]
    )
    entry["render_speedup"] = (
        entry["scalar"]["render_seconds"] / entry["packet"]["render_seconds"]
    )
    entry["rays_per_sec_speedup"] = (
        entry["packet"]["rays_per_sec"] / entry["scalar"]["rays_per_sec"]
    )
    return entry


def bench_predict(name: str, size: int) -> dict:
    """Cold end-to-end prediction: functional trace + Zatel.predict."""
    out: dict = {"scene": name, "width": size, "height": size}
    metrics = {}
    for backend in BACKENDS:
        scene = make_scene(name)
        scene.packed_bvh
        t0 = time.perf_counter()
        frame = FunctionalTracer(scene, _settings(backend, size)).trace_frame()
        result = Zatel(MOBILE_SOC).predict(scene, frame)
        out[backend] = {"seconds": time.perf_counter() - t0}
        metrics[backend] = {k: result.metrics[k] for k in result.metrics}
    out["metrics"] = metrics["packet"]
    out["identical_metrics"] = metrics["scalar"] == metrics["packet"]
    out["speedup"] = out["scalar"]["seconds"] / out["packet"]["seconds"]
    return out


def run(quick: bool) -> dict:
    """The whole experiment; ``quick`` trims scenes and repeats for CI."""
    scenes = (HEADLINE_SCENE,) if quick else (HEADLINE_SCENE,) + FULL_SCENES
    repeats = 1 if quick else 3
    payload = {
        "benchmark": "tracer_backends",
        "quick": quick,
        "scenes": [bench_scene(name, SIZE, repeats) for name in scenes],
        "predict": bench_predict(HEADLINE_SCENE, SIZE),
    }
    payload["identical"] = bool(
        all(e["identical"] for e in payload["scenes"])
        and payload["predict"]["identical_metrics"]
    )
    return payload


def _report(payload: dict) -> str:
    lines = []
    for e in payload["scenes"]:
        lines.append(
            f"{e['scene']} {e['width']}x{e['height']}: "
            f"scalar {e['scalar']['rays_per_sec']:,.0f} rays/s, "
            f"packet {e['packet']['rays_per_sec']:,.0f} rays/s "
            f"({e['rays_per_sec_speedup']:.1f}x trace, "
            f"{e['render_speedup']:.1f}x render, "
            f"identical={e['identical']}); "
            f"build_bvh {e['build_seconds'] * 1e3:.1f} ms; "
            f"frame {e['frame_bytes_per_entry']:.1f} B/entry"
        )
    p = payload["predict"]
    lines.append(
        f"cold Zatel.predict on {p['scene']}: "
        f"scalar {p['scalar']['seconds']:.2f}s, "
        f"packet {p['packet']['seconds']:.2f}s "
        f"({p['speedup']:.1f}x, zero metric drift="
        f"{p['identical_metrics']})"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="headline scene only, single repeat (the CI perf-smoke mode)",
    )
    parser.add_argument(
        "--out", default="BENCH_tracer.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    payload = run(args.quick)
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(_report(payload))
    print(f"wrote {args.out}")
    if not payload["identical"]:
        print("DIVERGENCE: backends disagree", file=sys.stderr)
        return 1
    return 0


def test_tracer_backends(benchmark):
    """Pytest entry: run once in quick mode and require exact equivalence."""
    payload = benchmark.pedantic(lambda: run(quick=True), rounds=1, iterations=1)
    assert all(e["identical"] for e in payload["scenes"])
    assert payload["predict"]["identical_metrics"]
    # Shape, not absolute timing: batching must not be slower than scalar.
    assert payload["scenes"][0]["rays_per_sec_speedup"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
