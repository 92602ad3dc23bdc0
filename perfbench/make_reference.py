"""Regenerate ``data/reference.json``: full-GPU ground truth per workload pair.

Every (scene, GPU, size) the benchmark scores accuracy on gets one full
simulation, exactly as ``Runner.full_sim`` runs it (``zatel predict
--compare``).  Run only after an intentional model change:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import common  # noqa: E402


def pairs() -> list[tuple[str, str, int]]:
    size = common.FRAME_SIZE
    scenes = sorted(set(common.PREDICT_SCENES) | set(common.VALIDATE_SCENES))
    out = [(scene, gpu, size) for scene in scenes for gpu in common.GPUS]
    out += [
        (body["scene"], body["gpu"], body["size"]) for body in common.hit_set()
    ]
    return out


def main() -> None:
    import tempfile

    common.import_repro(common.checkout_sources())
    from repro.gpu.config import preset
    from repro.harness.runner import Runner, Workload

    full_sim = {}
    with tempfile.TemporaryDirectory() as cache:
        runner = Runner(cache_dir=cache)
        for scene, gpu, size in pairs():
            stats = runner.full_sim(Workload(scene, size, size), preset(gpu))
            full_sim[common.pair_key(scene, gpu, size)] = stats.metrics()
            print(f"{scene} {gpu} {size}: cycles={stats.cycles}")
    common.REFERENCE_PATH.write_text(
        json.dumps({"full_sim": full_sim}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {common.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
