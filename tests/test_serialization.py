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


def _write_ztrace(path, body: bytes, pixels: int, header=None) -> None:
    """A ``.ztrace`` container around a hand-packed body.

    ``header`` replaces the default (well-formed) decoded header.
    """
    import json
    import zlib

    if header is None:
        header = {"width": 4, "height": 4, "spp": 1, "scene": "x", "pixels": pixels}
    header = zlib.compress(json.dumps(header).encode())
    body_z = zlib.compress(body)
    path.write_bytes(
        b"ZTRC"
        + struct.pack("<I", FORMAT_VERSION)
        + struct.pack("<I", len(header))
        + header
        + struct.pack("<I", len(body_z))
        + body_z
    )


def _pixel(px, py, segments=()) -> bytes:
    """One packed pixel; ``segments`` are ``(kind code, nodes, tris)``."""
    out = struct.pack("<HHHH", px, py, 24, len(segments))
    for kind, nodes, tris in segments:
        out += struct.pack("<BBHII", kind, 1, 10, len(nodes), len(tris))
        out += struct.pack(f"<{len(nodes)}I", *nodes)
        out += struct.pack(f"<{len(tris)}I", *tris)
    return out


class TestMalformedFiles:
    """Every malformed file is a ``ValueError`` naming the file."""

    def test_hand_packed_body_loads(self, tmp_path):
        path = tmp_path / "ok.ztrace"
        _write_ztrace(path, _pixel(0, 0, [(0, [0, 2], [7])]) + _pixel(1, 0), 2)
        frame = load_frame(path)
        assert len(frame.pixels) == 2
        assert list(frame.get(0, 0).segments[0].nodes) == [0, 2]

    def test_trailing_bytes_after_declared_pixels(self, tmp_path):
        path = tmp_path / "trail.ztrace"
        _write_ztrace(path, _pixel(0, 0) + _pixel(1, 0), 1)
        with pytest.raises(ValueError, match=r"trail\.ztrace.*trailing bytes"):
            load_frame(path)

    def test_trailing_bytes_after_the_body(self, small_frame, tmp_path):
        path = save_frame(small_frame, tmp_path / "tail.ztrace")
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ValueError, match=r"tail\.ztrace.*trailing bytes"):
            load_frame(path)

    def test_repeated_pixel(self, tmp_path):
        path = tmp_path / "dup.ztrace"
        _write_ztrace(path, _pixel(1, 1) + _pixel(1, 1), 2)
        with pytest.raises(ValueError, match=r"dup\.ztrace.*\(1, 1\) appears twice"):
            load_frame(path)

    def test_unknown_segment_kind(self, tmp_path):
        path = tmp_path / "kind.ztrace"
        _write_ztrace(path, _pixel(0, 0, [(9, [0], [])]), 1)
        with pytest.raises(ValueError, match=r"kind\.ztrace.*unknown segment kind 9"):
            load_frame(path)

    def test_record_running_past_the_body(self, tmp_path):
        path = tmp_path / "short.ztrace"
        _write_ztrace(path, _pixel(0, 0, [(0, [0, 1, 2], [])])[:-4], 1)
        with pytest.raises(ValueError, match=r"short\.ztrace.*truncated"):
            load_frame(path)

    @pytest.mark.parametrize("keep", [6, 20, -10])
    def test_truncated_file(self, small_frame, tmp_path, keep):
        path = save_frame(small_frame, tmp_path / "cut.ztrace")
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match=r"cut\.ztrace.*truncated"):
            load_frame(path)

    def test_save_rejects_shade_beyond_u16_naming_the_pixel(self, tmp_path):
        frame = FrameTrace(width=4, height=4, samples_per_pixel=1, scene_name="s")
        trace = PixelTrace(px=2, py=3)
        trace.segments.append(
            RaySegment(SegmentKind.PRIMARY, [0], [], True, 65_536)
        )
        frame.pixels[(2, 3)] = trace
        path = tmp_path / "big.ztrace"
        with pytest.raises(ValueError, match=r"big\.ztrace: pixel \(2, 3\)"):
            save_frame(frame, path)
        assert not path.exists()


def _header(**changes) -> dict:
    """The default test header for one pixel, with ``changes`` applied."""
    header = {"width": 4, "height": 4, "spp": 1, "scene": "x", "pixels": 1}
    header.update(changes)
    return header


class TestMalformedHeaders:
    """A header that decodes but is not a valid header is a ``ValueError``
    naming the file, never a ``TypeError`` or a silently empty frame."""

    def test_header_that_is_a_list(self, tmp_path):
        path = tmp_path / "list.ztrace"
        _write_ztrace(path, _pixel(0, 0), 1, header=[4, 4, 1, "x", 1])
        with pytest.raises(ValueError, match=r"list\.ztrace.*not a JSON object"):
            load_frame(path)

    def test_width_that_is_a_string(self, tmp_path):
        path = tmp_path / "str.ztrace"
        _write_ztrace(path, _pixel(0, 0), 1, header=_header(width="4"))
        with pytest.raises(ValueError, match=r"str\.ztrace.*'width' must be an int"):
            load_frame(path)

    def test_negative_width(self, tmp_path):
        path = tmp_path / "neg.ztrace"
        _write_ztrace(path, _pixel(0, 0), 1, header=_header(width=-4))
        with pytest.raises(ValueError, match=r"neg\.ztrace.*'width' must be an int >= 1"):
            load_frame(path)

    def test_negative_pixel_count(self, tmp_path):
        path = tmp_path / "count.ztrace"
        _write_ztrace(path, _pixel(0, 0), 1, header=_header(pixels=-1))
        with pytest.raises(ValueError, match=r"count\.ztrace.*'pixels' must be an int >= 0"):
            load_frame(path)

    @pytest.mark.parametrize(
        "changes, field",
        [({"spp": True}, "spp"), ({"height": 0}, "height"), ({"scene": 7}, "scene")],
        ids=["bool-spp", "zero-height", "int-scene"],
    )
    def test_other_invalid_fields(self, tmp_path, changes, field):
        path = tmp_path / "bad.ztrace"
        _write_ztrace(path, _pixel(0, 0), 1, header=_header(**changes))
        with pytest.raises(ValueError, match=rf"bad\.ztrace.*'{field}' must be"):
            load_frame(path)

    def test_legacy_backend_key_is_ignored(self, small_frame, tmp_path):
        # Files written while the tracer was selectable name it in the
        # header; they load unchanged.
        import json
        import zlib

        raw = save_frame(small_frame, tmp_path / "f.ztrace").read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(zlib.decompress(raw[12 : 12 + header_len]))
        assert "backend" not in header
        header["backend"] = "scalar"
        legacy = zlib.compress(json.dumps(header).encode())
        path = tmp_path / "legacy.ztrace"
        path.write_bytes(
            raw[:8] + struct.pack("<I", len(legacy)) + legacy
            + raw[12 + header_len :]
        )
        loaded = load_frame(path)
        assert loaded == small_frame
        assert frames_equal(loaded, small_frame)


class TestRecordBytes:
    def test_loaded_records_are_uint32_arrays(self, small_frame, tmp_path):
        from array import array

        loaded = load_frame(save_frame(small_frame, tmp_path / "a.ztrace"))
        for trace in loaded.pixels.values():
            for segment in trace.segments:
                assert type(segment.nodes) is array
                assert segment.nodes.typecode == segment.tris.typecode == "I"

    def test_body_is_the_packed_little_endian_layout(self, tmp_path):
        import zlib

        frame = FrameTrace(width=4, height=4, samples_per_pixel=1, scene_name="x")
        trace = PixelTrace(px=0, py=0)
        trace.segments.append(
            RaySegment(SegmentKind.PRIMARY, [0, 2, 2**32 - 1], [7], True, 10)
        )
        frame.pixels[(0, 0)] = trace
        raw = save_frame(frame, tmp_path / "le.ztrace").read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        body = zlib.decompress(raw[16 + header_len :])
        assert body == _pixel(0, 0, [(0, [0, 2, 2**32 - 1], [7])])


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
