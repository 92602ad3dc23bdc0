"""Simulator output pinned to a committed fixture.

``tests/data/sim_stats_golden.json`` holds every ``SimulationStats`` field,
plus a digest of the telemetry snapshots and timeline events, for each
library scene at 24x24 on both GPU presets under both warp schedulers.
Extra runs cover telemetry+timeline capture under both schedulers, RT
prefetching, and one RT slot per unit (the parking/wake FIFO under slot
pressure).  It is the oracle for ``CycleSimulator.run``: the event loop,
the RT units and the whole memory path.

Regenerating (only after an *intentional* timing-model change)::

    PYTHONPATH=src python tests/data/regen_sim_stats.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
FIXTURE = json.loads((DATA / "sim_stats_golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "regen_sim_stats", DATA / "regen_sim_stats.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.fixture(scope="module")
def warps_by_scene():
    """Traced warps per scene, shared across this module's runs."""
    return {}


def test_fixture_matches_run_plan():
    assert FIXTURE["meta"] == regen.META
    assert set(FIXTURE["runs"]) == set(regen.RUNS)


def test_fixture_covers_telemetry_and_prefetch():
    digests = [run["telemetry"] for run in FIXTURE["runs"].values()]
    assert any(d and d["snapshots"] and d["events"] for d in digests)
    assert any(o.get("rt_prefetch_depth") for _, _, o in regen.RUNS.values())


@pytest.mark.parametrize("run_id", sorted(regen.RUNS))
def test_simulator_reproduces_fixture(run_id, warps_by_scene):
    assert regen.simulate(run_id, warps_by_scene) == FIXTURE["runs"][run_id]
