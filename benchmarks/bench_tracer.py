"""Tracer benchmark: functional-tracer throughput on library scenes.

Times ``FunctionalTracer.trace_frame`` (records on, the profiling path)
and ``render_image`` (records off, radiance on), and the
cold end-to-end ``Zatel.predict`` wall-clock (functional trace +
prediction) with its metrics.  Each benched scene also records its
best-of-3 ``build_bvh`` seconds, its best-of-3 ``scene_seconds`` (a whole
fresh scene build, meshes and BVH, plus its ``packed_bvh``: what
``make_scene`` costs on a cache miss before the first trace) and
``frame_bytes_per_entry``: the bytes a traced frame retains (tracemalloc)
per node or triangle record entry, and ``trace_peak_bytes_per_entry``:
the tracemalloc peak while ``trace_frame`` runs, per entry likewise (the
tracer's transient working set).  tracemalloc counts repeat exactly on
one interpreter, so ``check_bench_regression.py`` gates both figures.
Results are written to ``BENCH_tracer.json``; timings sit under each
entry's ``packet`` key (the tracer's batched packet kernels), the key
the committed baseline has always used.

Run as a script (what CI's bench-regression job does):

.. code-block:: bash

    PYTHONPATH=src python benchmarks/bench_tracer.py --quick

The script never fails on speed; ``check_bench_regression.py`` gates the
payload's exact ray counts, prediction metrics, frame bytes per entry
and trace peak bytes per entry against the committed baseline.  Byte
identity with the scalar reference tracer is a test
(``tests/test_wavefront_golden.py``), not part of this benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

from repro.core import Zatel
from repro.gpu import MOBILE_SOC
from repro.scene import build_bvh, build_scene, make_scene
from repro.tracer import FunctionalTracer, RenderSettings

#: The headline scene/plane.
HEADLINE_SCENE = "SPRNG"
SIZE = 128
#: Scenes of the ``--quick`` (CI) run.  BUNNY's trace peak is set by
#: its traversal records, so the ``trace_peak_bytes_per_entry`` gate
#: sees a record-sized transient come back; SPRNG's is set by the
#: packet kernels' per-ray columns, which few records barely move.
QUICK_SCENES = (HEADLINE_SCENE, "BUNNY")
#: Traversal-heavy scene added in full (non ``--quick``) mode.
FULL_SCENES = ("SPNZA",)

#: ``build_bvh`` and whole-scene build runs per scene; the best is recorded.
BUILD_REPEATS = 3


def _total_rays(frame) -> int:
    return frame.columns().segment_count


def _settings(size: int) -> RenderSettings:
    return RenderSettings(width=size, height=size, samples_per_pixel=1, seed=0)


def _frame_memory_per_entry(scene, size: int) -> tuple[float, float]:
    """Bytes a traced frame retains, and bytes its trace peaks at, per entry.

    Both are tracemalloc figures per node or triangle record entry: what
    is still allocated after the trace and a ``gc.collect()``, and the
    peak while ``trace_frame`` ran.  The scene's packed BVH must already
    be built, and the settings' cached plane coordinates are built first
    (every frame shares them, none retains them).
    """
    tracer = FunctionalTracer(scene, _settings(size))
    tracer.settings.all_pixels()
    gc.collect()
    tracemalloc.start()
    try:
        frame = tracer.trace_frame()
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = frame.columns().entry_count()
    return retained / entries, peak / entries


def bench_scene(name: str, size: int, repeats: int) -> dict:
    """Trace and render one scene; best-of-N timings."""
    scene = make_scene(name)
    scene.packed_bvh  # build the SoA arrays outside the timed region
    entry: dict = {"scene": name, "width": size, "height": size, "spp": 1}
    build_best = float("inf")
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        build_bvh(scene.triangles)
        build_best = min(build_best, time.perf_counter() - t0)
    entry["build_seconds"] = build_best
    scene_best = float("inf")
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        build_scene(name).packed_bvh
        scene_best = min(scene_best, time.perf_counter() - t0)
    entry["scene_seconds"] = scene_best
    (
        entry["frame_bytes_per_entry"], entry["trace_peak_bytes_per_entry"]
    ) = _frame_memory_per_entry(scene, size)
    tracer = FunctionalTracer(scene, _settings(size))
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
    entry["packet"] = {
        "trace_seconds": trace_best,
        "render_seconds": render_best,
        "rays": rays,
        "rays_per_sec": rays / trace_best,
    }
    return entry


def bench_predict(name: str, size: int) -> dict:
    """Cold end-to-end prediction: functional trace + Zatel.predict."""
    scene = make_scene(name)
    scene.packed_bvh
    t0 = time.perf_counter()
    frame = FunctionalTracer(scene, _settings(size)).trace_frame()
    result = Zatel(MOBILE_SOC).predict(scene, frame)
    return {
        "scene": name,
        "width": size,
        "height": size,
        "packet": {"seconds": time.perf_counter() - t0},
        "metrics": {k: result.metrics[k] for k in result.metrics},
    }


def run(quick: bool) -> dict:
    """The whole experiment; ``quick`` trims scenes and repeats for CI."""
    scenes = QUICK_SCENES if quick else QUICK_SCENES + FULL_SCENES
    repeats = 1 if quick else 3
    return {
        "benchmark": "tracer_backends",
        "quick": quick,
        "scenes": [bench_scene(name, SIZE, repeats) for name in scenes],
        "predict": bench_predict(HEADLINE_SCENE, SIZE),
    }


def _report(payload: dict) -> str:
    lines = []
    for e in payload["scenes"]:
        lines.append(
            f"{e['scene']} {e['width']}x{e['height']}: "
            f"{e['packet']['rays_per_sec']:,.0f} rays/s traced, "
            f"render {e['packet']['render_seconds'] * 1e3:.1f} ms; "
            f"build_bvh {e['build_seconds'] * 1e3:.1f} ms, "
            f"scene {e['scene_seconds'] * 1e3:.1f} ms; "
            f"frame {e['frame_bytes_per_entry']:.1f} B/entry, "
            f"trace peak {e['trace_peak_bytes_per_entry']:.1f} B/entry"
        )
    p = payload["predict"]
    lines.append(
        f"cold Zatel.predict on {p['scene']}: {p['packet']['seconds']:.2f}s"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="SPRNG and BUNNY, single repeat (the CI bench-regression mode)",
    )
    parser.add_argument(
        "--out", default="BENCH_tracer.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    payload = run(args.quick)
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(_report(payload))
    print(f"wrote {args.out}")
    return 0


def test_tracer_throughput(benchmark):
    """Pytest entry: run once in quick mode; shape checks only."""
    payload = benchmark.pedantic(lambda: run(quick=True), rounds=1, iterations=1)
    entry = payload["scenes"][0]
    assert entry["packet"]["rays"] > 0
    assert entry["packet"]["rays_per_sec"] > 0
    assert set(payload["predict"]["metrics"]) >= {"cycles", "ipc"}


if __name__ == "__main__":
    sys.exit(main())
