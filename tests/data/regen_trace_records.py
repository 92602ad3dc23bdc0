"""Regenerate trace_records_golden.json: every traversal record a frame holds.

``frame_fingerprints.json`` pins only pixel counts and total cost, so a
reordered node list (same length, same cost) slips past it.  This fixture
pins the records themselves: per run, a SHA-256 of the *decompressed*
``.ztrace`` body (the packed per-pixel, per-segment node and triangle
indices, in order) plus the pixel, segment, node and triangle counts.  The
body is hashed rather than the file because zlib output may differ between
zlib builds.  The ``scalar`` runs trace with the scalar reference tracer
(``tests/reference_tracer.py``), the ``packet`` runs with
``FunctionalTracer``; each ``*/24/scalar`` digest equals its
``*/24/packet`` one.  Run only after an *intentional* tracer-model
change, and say so in the commit:

    PYTHONPATH=src python tests/data/regen_trace_records.py
"""

import hashlib
import json
import struct
import sys
import tempfile
import zlib
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.scene.library import SCENE_NAMES, make_scene  # noqa: E402
from repro.tracer.serialization import save_frame  # noqa: E402
from repro.tracer.trace import FrameTrace  # noqa: E402
from repro.tracer.tracer import FunctionalTracer, RenderSettings  # noqa: E402
from tests.reference_tracer import ReferenceTracer  # noqa: E402

#: Run-id tracer names: the scalar reference, or ``FunctionalTracer``.
TRACERS = {"scalar": ReferenceTracer, "packet": FunctionalTracer}

#: ``run id -> (scene, size, samples per pixel, tracer name)``.
RUNS = {
    f"{scene}/24/{tracer}": (scene, 24, 1, tracer)
    for scene in SCENE_NAMES
    for tracer in TRACERS
}
RUNS["SPNZA/64/packet"] = ("SPNZA", 64, 1, "packet")
RUNS["SPRNG/24/spp2/packet"] = ("SPRNG", 24, 2, "packet")


def trace(run_id: str) -> FrameTrace:
    """Trace one run's frame with its tracer."""
    scene_name, size, spp, tracer = RUNS[run_id]
    return TRACERS[tracer](
        make_scene(scene_name),
        RenderSettings(width=size, height=size, samples_per_pixel=spp, seed=0),
    ).trace_frame()


def ztrace_body(frame: FrameTrace) -> bytes:
    """The decompressed body ``save_frame`` writes for ``frame``."""
    with tempfile.TemporaryDirectory() as tmp:
        raw = save_frame(frame, Path(tmp) / "frame.ztrace").read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    offset = 12 + header_len
    (body_len,) = struct.unpack_from("<I", raw, offset)
    return zlib.decompress(raw[offset + 4 : offset + 4 + body_len])


def digest(frame: FrameTrace) -> dict:
    """Record counts plus the SHA-256 of the frame's ``.ztrace`` body."""
    segments = [s for t in frame.pixels.values() for s in t.segments]
    return {
        "pixels": len(frame.pixels),
        "segments": len(segments),
        "nodes": sum(len(s.nodes) for s in segments),
        "tris": sum(len(s.tris) for s in segments),
        "body_sha256": hashlib.sha256(ztrace_body(frame)).hexdigest(),
    }


def main() -> None:
    runs = {}
    for run_id in RUNS:
        runs[run_id] = digest(trace(run_id))
        print(f"{run_id}: {runs[run_id]}")
    out = Path(__file__).parent / "trace_records_golden.json"
    out.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
