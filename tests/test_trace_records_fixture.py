"""Traversal records pinned to a committed fixture.

``tests/data/trace_records_golden.json`` holds, per run, the SHA-256 of
the decompressed ``.ztrace`` body of a traced frame plus its pixel,
segment, node and triangle counts.  Runs cover every library scene at
24x24 traced by ``FunctionalTracer`` (``packet`` runs) and by the scalar
reference tracer in ``tests/reference_tracer.py`` (``scalar`` runs),
SPNZA at 64x64 and one two-sample frame.  Every node index a ray visits feeds the simulator's memory
stream, so the records must stay identical entry for entry however a
frame stores, pickles or loads them.

Regenerating (only after an *intentional* tracer-model change)::

    PYTHONPATH=src python tests/data/regen_trace_records.py
"""

import functools
import importlib.util
import json
import pickle
from pathlib import Path

import pytest

from repro.tracer.serialization import load_frame, save_frame

DATA = Path(__file__).parent / "data"
FIXTURE = json.loads((DATA / "trace_records_golden.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "regen_trace_records", DATA / "regen_trace_records.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

RUN_IDS = sorted(regen.RUNS)


@functools.lru_cache(maxsize=None)
def _traced(run_id):
    return regen.trace(run_id)


def test_fixture_matches_run_plan():
    assert set(FIXTURE["runs"]) == set(regen.RUNS)


@pytest.mark.parametrize("run_id", RUN_IDS)
def test_tracer_reproduces_fixture(run_id):
    assert regen.digest(_traced(run_id)) == FIXTURE["runs"][run_id]


@pytest.mark.parametrize("run_id", RUN_IDS)
def test_load_frame_reproduces_fixture(run_id, tmp_path):
    loaded = load_frame(save_frame(_traced(run_id), tmp_path / "f.ztrace"))
    assert regen.digest(loaded) == FIXTURE["runs"][run_id]


@pytest.mark.parametrize("run_id", RUN_IDS)
def test_pickle_round_trip_reproduces_fixture(run_id):
    restored = pickle.loads(pickle.dumps(_traced(run_id)))
    assert regen.digest(restored) == FIXTURE["runs"][run_id]
