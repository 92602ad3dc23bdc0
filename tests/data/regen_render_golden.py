"""Regenerate render_golden.json: the image every library scene renders.

``render_image`` runs without traversal records and computes radiance,
a path the trace fixtures never see; this one pins its output: per run,
the SHA-256 of the rendered ``(H, W, 3)`` float64 image bytes.
Values come from the scalar reference tracer (``tests/reference_tracer.py``),
and the script checks that ``FunctionalTracer`` renders the same bytes
before it writes.  Run only after an *intentional* tracer-model change,
and say so in the commit:

    PYTHONPATH=src python tests/data/regen_render_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.scene.library import SCENE_NAMES, make_scene  # noqa: E402
from repro.tracer.tracer import FunctionalTracer, RenderSettings  # noqa: E402
from tests.reference_tracer import ReferenceTracer  # noqa: E402

#: ``run id -> (scene, size, samples per pixel, seed)``.
RUNS = {f"{scene}/12/spp2": (scene, 12, 2, 5) for scene in SCENE_NAMES}
RUNS["WKND/12/spp1"] = ("WKND", 12, 1, 5)


def settings(run_id: str) -> RenderSettings:
    _, size, spp, seed = RUNS[run_id]
    return RenderSettings(
        width=size, height=size, samples_per_pixel=spp, seed=seed
    )


def image_sha256(image: np.ndarray) -> str:
    """SHA-256 of a rendered image's float64 bytes, row-major."""
    if image.dtype != np.float64:
        raise TypeError(f"expected a float64 image, got {image.dtype}")
    return hashlib.sha256(np.ascontiguousarray(image).tobytes()).hexdigest()


def render(run_id: str, tracer=FunctionalTracer) -> np.ndarray:
    """Render one run's full plane with ``tracer``."""
    return tracer(make_scene(RUNS[run_id][0]), settings(run_id)).render_image()


def main() -> None:
    runs = {}
    for run_id in RUNS:
        reference = render(run_id, ReferenceTracer)
        if not np.array_equal(render(run_id), reference):
            raise SystemExit(f"{run_id}: FunctionalTracer diverges from reference")
        runs[run_id] = image_sha256(reference)
        print(f"{run_id}: {runs[run_id]}")
    out = Path(__file__).parent / "render_golden.json"
    out.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
