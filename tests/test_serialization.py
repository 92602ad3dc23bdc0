"""Tests for the .ztrace frame serialization format."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tracer import (
    FORMAT_VERSION,
    FrameTrace,
    PixelTrace,
    RaySegment,
    SegmentKind,
    load_frame,
    save_frame,
)


def frames_equal(a: FrameTrace, b: FrameTrace) -> bool:
    if (a.width, a.height, a.samples_per_pixel, a.scene_name) != (
        b.width, b.height, b.samples_per_pixel, b.scene_name
    ):
        return False
    if a.pixels.keys() != b.pixels.keys():
        return False
    for key, ta in a.pixels.items():
        tb = b.pixels[key]
        if ta.raygen_instructions != tb.raygen_instructions:
            return False
        if len(ta.segments) != len(tb.segments):
            return False
        for sa, sb in zip(ta.segments, tb.segments):
            if (sa.kind, sa.hit, sa.shade_instructions, sa.nodes, sa.tris) != (
                sb.kind, sb.hit, sb.shade_instructions, sb.nodes, sb.tris
            ):
                return False
    return True


class TestRoundtrip:
    def test_real_frame_roundtrip(self, small_frame, tmp_path):
        path = save_frame(small_frame, tmp_path / "frame.ztrace")
        loaded = load_frame(path)
        assert frames_equal(small_frame, loaded)

    def test_costs_preserved(self, small_frame, tmp_path):
        loaded = load_frame(save_frame(small_frame, tmp_path / "f.ztrace"))
        assert loaded.total_cost() == small_frame.total_cost()

    def test_compression_beats_naive_size(self, small_frame, tmp_path):
        path = save_frame(small_frame, tmp_path / "f.ztrace")
        naive = sum(
            4 * (t.total_nodes() + t.total_tris())
            for t in small_frame.pixels.values()
        )
        assert path.stat().st_size < naive

    def test_empty_frame(self, tmp_path):
        frame = FrameTrace(width=4, height=4, samples_per_pixel=1, scene_name="e")
        loaded = load_frame(save_frame(frame, tmp_path / "e.ztrace"))
        assert loaded.pixels == {}
        assert loaded.scene_name == "e"


class TestErrorHandling:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ztrace"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="not a .ztrace"):
            load_frame(path)

    def test_bad_version(self, small_frame, tmp_path):
        path = save_frame(small_frame, tmp_path / "v.ztrace")
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", FORMAT_VERSION + 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported"):
            load_frame(path)

    def test_truncated_body(self, small_frame, tmp_path):
        import json
        import zlib

        path = tmp_path / "t.ztrace"
        header = zlib.compress(
            json.dumps(
                {"width": 4, "height": 4, "spp": 1, "scene": "x", "pixels": 3}
            ).encode()
        )
        body = zlib.compress(b"\x00" * 4)  # far too short for 3 pixels
        path.write_bytes(
            b"ZTRC"
            + struct.pack("<I", FORMAT_VERSION)
            + struct.pack("<I", len(header))
            + header
            + struct.pack("<I", len(body))
            + body
        )
        with pytest.raises(ValueError, match="truncated"):
            load_frame(path)

    def test_pixel_outside_the_plane(self, tmp_path):
        frame = FrameTrace(width=2, height=2, samples_per_pixel=1, scene_name="o")
        frame.pixels[(5, 0)] = PixelTrace(px=5, py=0)
        path = save_frame(frame, tmp_path / "o.ztrace")
        with pytest.raises(ValueError, match="outside the image plane"):
            load_frame(path)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_synthetic_roundtrip(tmp_path_factory, seed):
    import random

    rng = random.Random(seed)
    frame = FrameTrace(width=16, height=16, samples_per_pixel=1, scene_name="syn")
    for _ in range(rng.randint(1, 8)):
        px, py = rng.randrange(16), rng.randrange(16)
        trace = PixelTrace(px=px, py=py, raygen_instructions=rng.randrange(64))
        for _ in range(rng.randint(0, 4)):
            trace.segments.append(
                RaySegment(
                    kind=rng.choice(list(SegmentKind)),
                    nodes=[rng.randrange(2**20) for _ in range(rng.randint(0, 30))],
                    tris=[rng.randrange(2**20) for _ in range(rng.randint(0, 10))],
                    hit=rng.random() < 0.5,
                    shade_instructions=rng.randrange(64),
                )
            )
        frame.pixels[(px, py)] = trace
    tmp = tmp_path_factory.mktemp("ztrace")
    loaded = load_frame(save_frame(frame, tmp / "syn.ztrace"))
    assert frames_equal(frame, loaded)
