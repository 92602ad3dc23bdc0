"""Regenerate golden_predict.json from the current pipeline.

Run only after an *intentional* model change, and say so in the commit:

    PYTHONPATH=src python tests/data/regen_golden_predict.py
"""

import json
from pathlib import Path

from repro.core.pipeline import Zatel
from repro.gpu.config import MOBILE_SOC
from repro.scene.library import SCENE_NAMES, make_scene
from repro.tracer.tracer import FunctionalTracer, RenderSettings

#: ``backend`` names the tracer the fixture was captured with: the packet
#: (wavefront) tracer, today's ``FunctionalTracer``.
META = {"size": 24, "spp": 1, "seed": 0, "backend": "packet",
        "gpu": "MobileSoC"}


def main() -> None:
    metrics = {}
    for scene_name in SCENE_NAMES:
        scene = make_scene(scene_name)
        frame = FunctionalTracer(
            scene,
            RenderSettings(
                width=META["size"], height=META["size"],
                samples_per_pixel=META["spp"], seed=META["seed"],
            ),
        ).trace_frame()
        result = Zatel(MOBILE_SOC).predict(scene, frame)
        metrics[scene_name] = dict(result.metrics)
        print(f"{scene_name}: cycles={result.metrics['cycles']}")
    out = Path(__file__).parent / "golden_predict.json"
    out.write_text(
        json.dumps({"meta": META, "metrics": metrics}, indent=2,
                   sort_keys=True)
        + "\n"
    )
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
