"""Regenerate triangles_golden.json: the exact triangles each scene is built from.

``bvh_golden.json`` pins the tree and the Moller-Trumbore operands, but a
traced frame also reads every hit triangle's normal (for shading and
bounce directions) and material id.  Each run builds a library scene and
pins a SHA-256 of its triangles' ``v0``/``v1``/``v2`` bytes, of their
normals' bytes and of their material ids, in scene order.  Run only after
an *intentional* change to scene geometry, and say so in the commit:

    PYTHONPATH=src python tests/data/regen_triangles_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.scene.library import EXTRA_SCENES, SCENE_NAMES, build_scene

#: Every library scene, by name.
RUNS = SCENE_NAMES + EXTRA_SCENES


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def triangle_digest(triangles) -> dict:
    """Triangle count plus one SHA-256 per triangle field."""
    return {
        "triangles": len(triangles),
        "sha256": {
            "vertices": _sha(
                np.array([(t.v0, t.v1, t.v2) for t in triangles], dtype=np.float64)
            ),
            "normals": _sha(np.array([t.normal for t in triangles], dtype=np.float64)),
            "materials": _sha(
                np.array([t.material_id for t in triangles], dtype=np.int64)
            ),
        },
    }


def build(scene_name: str) -> dict:
    """Build one fixture entry from a fresh instance of the scene."""
    return triangle_digest(build_scene(scene_name).triangles)


def main() -> None:
    scenes = {}
    for name in RUNS:
        scenes[name] = build(name)
        print(f"{name}: triangles={scenes[name]['triangles']}")
    out = Path(__file__).parent / "triangles_golden.json"
    out.write_text(json.dumps({"scenes": scenes}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
