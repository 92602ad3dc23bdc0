"""BVH build output pinned to a committed fixture.

``tests/data/bvh_golden.json`` holds, per run, the node count and a
SHA-256 per part of the tree ``build_bvh`` makes: node bounds, links,
``primitive_order`` and the traversal views.  Runs cover the SAH build on
every library and extra scene, the median build on three scenes, and leaf
sizes 1 and 8.  Every traced frame, and so every predict, walks these
node indices, so the tree must stay identical node for node.

Regenerating (only after an *intentional* change to the tree)::

    PYTHONPATH=src python tests/data/regen_bvh_golden.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
FIXTURE = json.loads((DATA / "bvh_golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "regen_bvh_golden", DATA / "regen_bvh_golden.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_fixture_matches_run_plan():
    assert set(FIXTURE["runs"]) == set(regen.RUNS)


@pytest.mark.parametrize("run_id", sorted(regen.RUNS))
def test_build_reproduces_fixture(run_id):
    assert regen.build(run_id) == FIXTURE["runs"][run_id]
