"""Regenerate frame_fingerprints.json: the frame identity of every library scene.

``frame_fingerprint`` keys every stored artifact downstream of a frame, so
its values must not drift with how a frame computes its total cost.  Run
only after an *intentional* tracer-model change, and say so in the commit:

    PYTHONPATH=src python tests/data/regen_frame_fingerprints.py
"""

import json
from pathlib import Path

from repro.core.stages.fingerprint import frame_fingerprint
from repro.scene.library import SCENE_NAMES, make_scene
from repro.tracer.tracer import FunctionalTracer, RenderSettings

META = {"size": 24, "spp": 1, "seed": 0, "backend": "scalar"}


def main() -> None:
    fingerprints = {}
    for scene_name in SCENE_NAMES:
        frame = FunctionalTracer(
            make_scene(scene_name),
            RenderSettings(
                width=META["size"], height=META["size"],
                samples_per_pixel=META["spp"], seed=META["seed"],
                tracing_backend=META["backend"],
            ),
        ).trace_frame()
        fingerprints[scene_name] = frame_fingerprint(frame)
        print(f"{scene_name}: {fingerprints[scene_name]}")
    out = Path(__file__).parent / "frame_fingerprints.json"
    out.write_text(
        json.dumps({"meta": META, "fingerprints": fingerprints}, indent=2,
                   sort_keys=True)
        + "\n"
    )
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
