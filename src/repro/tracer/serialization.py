"""Portable frame-trace serialization (the ``.ztrace`` format).

Frame traces are the repository's most expensive artifact (minutes of
functional tracing for large planes), and the natural unit to share
between machines or check into workload repositories.  Pickle works for
local caching, but is Python-version-bound and opaque; ``.ztrace`` is a
small, versioned, compressed binary format:

::

    magic   b"ZTRC"
    version u32
    header  zlib(json): width, height, spp, scene name, pixel count
    body    zlib(packed segments):
              per pixel:  px, py, raygen, segment count
              per segment: kind, hit, shade, node count, tri count,
                           node indices..., tri indices...

All integers are little-endian; indices are u32 (BVHs beyond 4G nodes are
beyond this simulator anyway).  A segment's index records are written and
read as the raw bytes of its ``array('I')`` records, byteswapped only on
big-endian hosts.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from pathlib import Path

from .trace import KIND_CODES, KINDS, FrameTrace, PixelTrace, RaySegment

__all__ = ["save_frame", "load_frame", "FORMAT_VERSION"]

_MAGIC = b"ZTRC"
FORMAT_VERSION = 1

#: Records are host-order ``array('I')``; the format is little-endian.
_SWAP = sys.byteorder == "big"


def _record_bytes(record: array) -> bytes:
    """A record's indices as little-endian u32 bytes."""
    if _SWAP:
        record = array("I", record)
        record.byteswap()
    return record.tobytes()


def _record(view: memoryview) -> array:
    """The ``array('I')`` record packed as little-endian u32 in ``view``."""
    record = array("I")
    record.frombytes(view)
    if _SWAP:
        record.byteswap()
    return record


def save_frame(frame: FrameTrace, path: str | Path) -> Path:
    """Serialize ``frame`` to ``path`` in the ``.ztrace`` format.

    Raises:
        ValueError: naming the file and pixel, when a value does not fit
            its field (e.g. more than 65535 shade instructions).
    """
    header = json.dumps(
        {
            "width": frame.width,
            "height": frame.height,
            "spp": frame.samples_per_pixel,
            "scene": frame.scene_name,
            "pixels": len(frame.pixels),
        }
    ).encode()

    chunks: list[bytes] = []
    for (px, py), trace in frame.pixels.items():
        try:
            chunks.append(
                struct.pack(
                    "<HHHH", px, py, trace.raygen_instructions, len(trace.segments)
                )
            )
            for segment in trace.segments:
                chunks.append(
                    struct.pack(
                        "<BBHII",
                        KIND_CODES[segment.kind],
                        1 if segment.hit else 0,
                        segment.shade_instructions,
                        len(segment.nodes),
                        len(segment.tris),
                    )
                )
                chunks.append(_record_bytes(segment.nodes))
                chunks.append(_record_bytes(segment.tris))
        except struct.error as error:
            raise ValueError(
                f"{path}: pixel ({px}, {py}) does not fit the .ztrace "
                f"format: {error}"
            ) from error
    body = zlib.compress(b"".join(chunks), level=6)
    header_z = zlib.compress(header, level=6)

    path = Path(path)
    with path.open("wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(header_z)))
        f.write(header_z)
        f.write(struct.pack("<I", len(body)))
        f.write(body)
    return path


def _header_fields(path, header) -> tuple[int, int, int, str, int]:
    """Width, height, spp, scene name and pixel count of a decoded header.

    Keys the format does not name (such as the tracer provenance older
    writers stored) are ignored.

    Raises:
        ValueError: naming the file, when the header is not an object, a
            key is missing, a size is not a positive int, the pixel count
            is not a non-negative int, or the scene is not a string.
    """
    if not isinstance(header, dict):
        raise ValueError(f"{path}: .ztrace header is not a JSON object")
    try:
        fields = tuple(
            header[key] for key in ("width", "height", "spp", "scene", "pixels")
        )
    except KeyError as error:
        raise ValueError(f"{path}: .ztrace header lacks {error}") from error
    width, height, spp, scene, pixels = fields
    for key, value, low in (
        ("width", width, 1), ("height", height, 1), ("spp", spp, 1),
        ("pixels", pixels, 0),
    ):
        # ``type(value) is int`` also refuses JSON's true/false.
        if type(value) is not int or value < low:
            raise ValueError(
                f"{path}: .ztrace header {key!r} must be an int >= {low}, "
                f"got {value!r}"
            )
    if not isinstance(scene, str):
        raise ValueError(
            f"{path}: .ztrace header 'scene' must be a string, got {scene!r}"
        )
    return fields


def load_frame(path: str | Path) -> FrameTrace:
    """Deserialize a ``.ztrace`` file back into a sealed :class:`FrameTrace`.

    Raises:
        ValueError: naming the file, on a bad magic, an unsupported
            version, a truncated or corrupt stream, a malformed header,
            trailing bytes, an unknown segment kind, a repeated pixel, or a
            pixel outside the header's image plane.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a .ztrace file")
    try:
        (version,) = struct.unpack_from("<I", raw, 4)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported .ztrace version {version} "
                f"(supported: {FORMAT_VERSION})"
            )
        offset = 8
        (header_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        header = json.loads(zlib.decompress(raw[offset : offset + header_len]))
        offset += header_len
        (body_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        body = memoryview(zlib.decompress(raw[offset : offset + body_len]))
    except (struct.error, zlib.error, json.JSONDecodeError) as error:
        raise ValueError(f"{path}: truncated or corrupt .ztrace file") from error
    if offset + body_len != len(raw):
        raise ValueError(f"{path}: trailing bytes after the .ztrace body")

    width, height, spp, scene, declared = _header_fields(path, header)
    frame = FrameTrace(width, height, spp, scene)
    pixels = frame.pixels
    cursor = 0
    try:
        for _ in range(declared):
            px, py, raygen, n_segments = struct.unpack_from("<HHHH", body, cursor)
            cursor += 8
            if (px, py) in pixels:
                raise ValueError(f"{path}: pixel ({px}, {py}) appears twice")
            trace = PixelTrace(px=px, py=py, raygen_instructions=raygen)
            for _ in range(n_segments):
                kind_code, hit, shade, n_nodes, n_tris = struct.unpack_from(
                    "<BBHII", body, cursor
                )
                if kind_code >= len(KINDS):
                    raise ValueError(
                        f"{path}: unknown segment kind {kind_code} at "
                        f"pixel ({px}, {py})"
                    )
                nodes_end = cursor + 12 + 4 * n_nodes
                tris_end = nodes_end + 4 * n_tris
                if tris_end > len(body):
                    raise struct.error("record runs past the body")
                trace.segments.append(
                    RaySegment(
                        KINDS[kind_code],
                        _record(body[cursor + 12 : nodes_end]),
                        _record(body[nodes_end:tris_end]),
                        bool(hit),
                        shade,
                    )
                )
                cursor = tris_end
            pixels[(px, py)] = trace
    except struct.error as error:
        raise ValueError(f"{path}: truncated .ztrace body") from error
    if cursor != len(body):
        raise ValueError(
            f"{path}: {len(body) - cursor} trailing bytes after the "
            f"{declared} declared pixels"
        )
    try:
        return frame.seal()
    except IndexError as error:
        raise ValueError(f"{path}: pixel outside the image plane") from error
