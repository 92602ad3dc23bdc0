"""Regenerate bvh_golden.json: the exact tree ``build_bvh`` makes per scene.

Every node index a ray visits feeds the timing model, so the BVH must not
change node for node when the builder's implementation does.  Each run
pins a SHA-256 per part of the tree: node bounds (float64 bytes), the
``left``/``right``/``first``/``count`` links, ``primitive_order`` and the
three traversal views (``_flat_nodes``, ``_order_hints``, ``_flat_tris``,
hashed through ``repr`` so Python-vs-NumPy scalar types are pinned too).
Run only after an *intentional* change to the tree, and say so in the
commit:

    PYTHONPATH=src python tests/data/regen_bvh_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.scene.bvh import BVH, build_bvh
from repro.scene.library import EXTRA_SCENES, SCENE_NAMES, make_scene

#: ``run id -> (scene, method, leaf_size)``.
RUNS = {f"{scene}/sah": (scene, "sah", 4) for scene in SCENE_NAMES + EXTRA_SCENES}
RUNS.update(
    {f"{scene}/median": (scene, "median", 4) for scene in ("SPRNG", "BUNNY", "PARK")}
)
RUNS.update({f"SPNZA/sah/leaf{n}": ("SPNZA", "sah", n) for n in (1, 8)})


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(bvh: BVH) -> dict:
    """Node count plus one SHA-256 per part of the tree."""
    nodes = bvh.nodes
    bounds = np.array(
        [np.concatenate([n.bounds.lo, n.bounds.hi]) for n in nodes],
        dtype=np.float64,
    )
    links = np.array(
        [(n.left, n.right, n.first, n.count) for n in nodes], dtype=np.int64
    )
    return {
        "nodes": len(nodes),
        "sha256": {
            "bounds": _sha(bounds.tobytes()),
            "links": _sha(links.tobytes()),
            "primitive_order": _sha(repr(bvh.primitive_order).encode()),
            "flat_nodes": _sha(repr(bvh._flat_nodes).encode()),
            "order_hints": _sha(repr(bvh._order_hints).encode()),
            "flat_tris": _sha(repr(bvh._flat_tris).encode()),
        },
    }


def build(run_id: str) -> dict:
    """Build one fixture entry over its library scene's triangles."""
    scene_name, method, leaf_size = RUNS[run_id]
    triangles = make_scene(scene_name).triangles
    return tree_digest(build_bvh(triangles, method=method, leaf_size=leaf_size))


def main() -> None:
    runs = {}
    for run_id in RUNS:
        runs[run_id] = build(run_id)
        print(f"{run_id}: nodes={runs[run_id]['nodes']}")
    out = Path(__file__).parent / "bvh_golden.json"
    out.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
