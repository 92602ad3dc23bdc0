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
beyond this simulator anyway).  The body is the frame's columns
(:class:`~repro.tracer.trace.FrameColumns`) walked pixel by pixel: each
record is written as the raw bytes of a view of the frame's uint32
buffers (byteswapped only on big-endian hosts), and the loader joins the
records back into one little-endian node buffer and one triangle buffer.
The format and the body bytes are the same as when each segment held its
own records.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from pathlib import Path

import numpy as np

from .trace import KINDS, FrameColumns, FrameTrace

__all__ = ["save_frame", "load_frame", "FORMAT_VERSION"]

_MAGIC = b"ZTRC"
FORMAT_VERSION = 1

#: Records are host-order ``array('I')``; the format is little-endian.
_SWAP = sys.byteorder == "big"


def _record_bytes(record: memoryview) -> bytes:
    """A record's indices as little-endian u32 bytes."""
    if _SWAP:
        swapped = array("I", record)
        swapped.byteswap()
        return swapped.tobytes()
    return record.tobytes()


def save_frame(frame: FrameTrace, path: str | Path) -> Path:
    """Serialize ``frame`` to ``path`` in the ``.ztrace`` format.

    Raises:
        ValueError: naming the file and pixel, when a value does not fit
            its field (e.g. more than 65535 shade instructions).
    """
    columns = frame.columns()
    header = json.dumps(
        {
            "width": frame.width,
            "height": frame.height,
            "spp": frame.samples_per_pixel,
            "scene": frame.scene_name,
            "pixels": columns.pixel_count,
        }
    ).encode()

    kinds = columns.kind.tolist()
    hits = columns.hit.tolist()
    chunks: list[bytes] = []
    for px, py, raygen, segments in columns.rows():
        try:
            chunks.append(struct.pack("<HHHH", px, py, raygen, len(segments)))
            for segment in segments:
                nodes, tris = columns.records(segment)
                chunks.append(
                    struct.pack(
                        "<BBHII",
                        kinds[segment],
                        hits[segment],
                        columns.shade_of(segment),
                        len(nodes),
                        len(tris),
                    )
                )
                chunks.append(_record_bytes(nodes))
                chunks.append(_record_bytes(tris))
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
    xs, ys, raygens, segment_counts = [], [], [], []
    kinds, hits, shades, node_counts, tri_counts = [], [], [], [], []
    nodes: list[memoryview] = []
    tris: list[memoryview] = []
    seen: set[tuple[int, int]] = set()
    cursor = 0
    try:
        for _ in range(declared):
            px, py, raygen, n_segments = struct.unpack_from("<HHHH", body, cursor)
            cursor += 8
            if (px, py) in seen:
                raise ValueError(f"{path}: pixel ({px}, {py}) appears twice")
            seen.add((px, py))
            xs.append(px)
            ys.append(py)
            raygens.append(raygen)
            segment_counts.append(n_segments)
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
                kinds.append(kind_code)
                hits.append(hit)
                shades.append(shade)
                node_counts.append(n_nodes)
                tri_counts.append(n_tris)
                nodes.append(body[cursor + 12 : nodes_end])
                tris.append(body[nodes_end:tris_end])
                cursor = tris_end
    except struct.error as error:
        raise ValueError(f"{path}: truncated .ztrace body") from error
    if cursor != len(body):
        raise ValueError(
            f"{path}: {len(body) - cursor} trailing bytes after the "
            f"{declared} declared pixels"
        )
    columns = FrameColumns(
        width, height, xs, ys, raygens, segment_counts, kinds, hits, shades,
        node_counts, np.frombuffer(b"".join(nodes), dtype="<u4"),
        tri_counts, np.frombuffer(b"".join(tris), dtype="<u4"),
    )
    try:
        return FrameTrace.from_columns(columns, spp, scene)
    except IndexError as error:
        raise ValueError(f"{path}: pixel outside the image plane") from error
