"""Regenerate quantize_golden.json: the exact K-Means output per heatmap.

Every group's traced fraction (equation (1)) and every selection weight
derive from the quantized palette, its per-pixel labels and the per-color
coolness, so K-Means must not change by a single bit when its
implementation does.  Each run traces a library scene with
``FunctionalTracer``, profiles it with the profile stage's defaults, quantizes with
``seed=0`` and pins a SHA-256 of the palette, labels and coolness bytes
(dtype included, through the byte length).  Run only after an
*intentional* change to the quantization, and say so in the commit:

    PYTHONPATH=src python tests/data/regen_quantize_golden.py
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

from repro.core.heatmap import Heatmap
from repro.core.quantize import quantize_heatmap
from repro.scene.library import SCENE_NAMES, make_scene
from repro.tracer.tracer import FunctionalTracer, RenderSettings

#: ``run id -> (scene, size, colors)``.
RUNS = {
    f"{scene}/{size}/k{k}": (scene, size, k)
    for scene in SCENE_NAMES
    for size in (24, 64)
    for k in (4, 8)
}
RUNS["SPRNG/128/k8"] = ("SPRNG", 128, 8)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@lru_cache(maxsize=None)
def heatmap(scene_name: str, size: int) -> Heatmap:
    """The profiled heatmap of one library scene (cached across runs)."""
    frame = FunctionalTracer(
        make_scene(scene_name),
        RenderSettings(width=size, height=size, samples_per_pixel=1, seed=0),
    ).trace_frame()
    return Heatmap.from_frame(frame)


def build(run_id: str) -> dict:
    """Quantize one run's heatmap and digest the result."""
    scene_name, size, k = RUNS[run_id]
    quantized = quantize_heatmap(heatmap(scene_name, size), k, seed=0)
    return {
        "palette": _sha(quantized.palette.tobytes()),
        "labels": _sha(quantized.labels.tobytes()),
        "coolness": _sha(quantized.coolness.tobytes()),
    }


def main() -> None:
    runs = {}
    for run_id in RUNS:
        runs[run_id] = build(run_id)
        print(f"{run_id}: {runs[run_id]['labels'][:16]}")
    out = Path(__file__).parent / "quantize_golden.json"
    out.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
