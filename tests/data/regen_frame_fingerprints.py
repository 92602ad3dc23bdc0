"""Regenerate frame_fingerprints.json: the frame identity of every library scene.

``frame_fingerprint`` keys every stored artifact downstream of a frame, so
its values must not drift with how a frame computes its total cost.  The
frames come from the scalar reference tracer (``tests/reference_tracer.py``,
``META["backend"]``), and the script checks that ``FunctionalTracer``
gives the same fingerprints.  Run only after an *intentional* tracer-model
change, and say so in the commit:

    PYTHONPATH=src python tests/data/regen_frame_fingerprints.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.core.stages.fingerprint import frame_fingerprint  # noqa: E402
from repro.scene.library import SCENE_NAMES, make_scene  # noqa: E402
from repro.tracer.tracer import FunctionalTracer, RenderSettings  # noqa: E402
from tests.reference_tracer import ReferenceTracer  # noqa: E402

#: ``backend`` names the tracer the fixture was captured with: the
#: scalar one, kept as the reference tracer.
META = {"size": 24, "spp": 1, "seed": 0, "backend": "scalar"}


def main() -> None:
    fingerprints = {}
    settings = RenderSettings(
        width=META["size"], height=META["size"],
        samples_per_pixel=META["spp"], seed=META["seed"],
    )
    for scene_name in SCENE_NAMES:
        scene = make_scene(scene_name)
        fingerprint = frame_fingerprint(
            ReferenceTracer(scene, settings).trace_frame()
        )
        traced = FunctionalTracer(scene, settings).trace_frame()
        if frame_fingerprint(traced) != fingerprint:
            raise SystemExit(f"{scene_name}: FunctionalTracer diverges")
        fingerprints[scene_name] = fingerprint
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
