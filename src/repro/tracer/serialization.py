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
beyond this simulator anyway).
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

from .trace import FrameTrace, PixelTrace, RaySegment, SegmentKind

__all__ = ["save_frame", "load_frame", "FORMAT_VERSION"]

_MAGIC = b"ZTRC"
FORMAT_VERSION = 1

_KIND_CODES = {kind: code for code, kind in enumerate(SegmentKind)}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def save_frame(frame: FrameTrace, path: str | Path) -> Path:
    """Serialize ``frame`` to ``path`` in the ``.ztrace`` format."""
    header = json.dumps(
        {
            "width": frame.width,
            "height": frame.height,
            "spp": frame.samples_per_pixel,
            "scene": frame.scene_name,
            "pixels": len(frame.pixels),
            # Provenance only; older readers ignore unknown header keys.
            "backend": getattr(frame, "backend", "scalar"),
        }
    ).encode()

    chunks: list[bytes] = []
    for (px, py), trace in frame.pixels.items():
        chunks.append(
            struct.pack(
                "<HHHH", px, py, trace.raygen_instructions, len(trace.segments)
            )
        )
        for segment in trace.segments:
            chunks.append(
                struct.pack(
                    "<BBHII",
                    _KIND_CODES[segment.kind],
                    1 if segment.hit else 0,
                    segment.shade_instructions,
                    len(segment.nodes),
                    len(segment.tris),
                )
            )
            chunks.append(
                struct.pack(f"<{len(segment.nodes)}I", *segment.nodes)
            )
            chunks.append(struct.pack(f"<{len(segment.tris)}I", *segment.tris))
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


def load_frame(path: str | Path) -> FrameTrace:
    """Deserialize a ``.ztrace`` file back into a sealed :class:`FrameTrace`.

    Raises:
        ValueError: on a bad magic, unsupported version, truncation, or a
            pixel outside the header's image plane.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a .ztrace file")
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
    body = zlib.decompress(raw[offset : offset + body_len])

    frame = FrameTrace(
        width=header["width"],
        height=header["height"],
        samples_per_pixel=header["spp"],
        scene_name=header["scene"],
        # Files written before the key existed were all scalar-traced.
        backend=header.get("backend", "scalar"),
    )
    cursor = 0
    try:
        for _ in range(header["pixels"]):
            px, py, raygen, n_segments = struct.unpack_from("<HHHH", body, cursor)
            cursor += 8
            trace = PixelTrace(px=px, py=py, raygen_instructions=raygen)
            for _ in range(n_segments):
                kind_code, hit, shade, n_nodes, n_tris = struct.unpack_from(
                    "<BBHII", body, cursor
                )
                cursor += 12
                nodes = list(
                    struct.unpack_from(f"<{n_nodes}I", body, cursor)
                )
                cursor += 4 * n_nodes
                tris = list(struct.unpack_from(f"<{n_tris}I", body, cursor))
                cursor += 4 * n_tris
                trace.segments.append(
                    RaySegment(
                        kind=_CODE_KINDS[kind_code],
                        nodes=nodes,
                        tris=tris,
                        hit=bool(hit),
                        shade_instructions=shade,
                    )
                )
            frame.pixels[(px, py)] = trace
    except struct.error as error:
        raise ValueError(f"{path}: truncated .ztrace body") from error
    try:
        return frame.seal()
    except IndexError as error:
        raise ValueError(f"{path}: pixel outside the image plane") from error
