"""Request/response schemas of the prediction service.

One place defines what a ``POST /predict`` body means, so the server,
the :class:`~repro.cli.client.ZatelClient` and the tests cannot drift
apart.  The body is a flat JSON object mirroring the ``predict`` CLI
arguments::

    {
      "scene": "SPRNG",          // library name, or a recipe object:
                                 //   {"recipe": "saturation",
                                 //    "knobs": {"level": 0.4}, "seed": 1}
      "size": 64,                // image-plane side length (<= 512)
      "spp": 1, "seed": 0,
      "gpu": "mobile",           // preset name: mobile | rtx2060
      "division": "fine", "distribution": "uniform",
      "fraction": null,          // pin the traced fraction, (0, 1]
      "adaptive": false,
      "wait": true               // false: 202 + job id, poll /jobs/<id>
    }

``POST /campaigns`` takes a whole samplesheet document (the same
``{"campaign": {...}, "points": [...]}`` shape the TOML/JSON files
carry) plus the transport-level ``wait`` flag; everything else is
validated by :func:`~repro.core.stages.campaign.parse_samplesheet`.

Validation is strict — unknown keys are rejected, so a typo'd field
name fails loudly with a 400 instead of silently running defaults.  All
semantic checks live on :class:`~repro.core.stages.requests.PredictSpec`
itself; this module only adapts JSON to it.
"""

from __future__ import annotations

from typing import Any

from ..core.stages.campaign import Campaign, parse_samplesheet
from ..core.stages.requests import PredictSpec
from ..scene.spec import SceneSpec

__all__ = [
    "parse_campaign_payload",
    "parse_predict_payload",
    "SPEC_FIELDS",
    "READY_PREFIX",
    "format_ready_line",
    "parse_ready_line",
]

#: First token of the machine-readable startup line every server mode
#: prints once its socket is bound.  CI smokes launch with ``--port 0``
#: and read the kernel-chosen port from this line instead of racing to
#: pre-pick a free one; the format is part of the service contract
#: (tests pin it), so change it like any other schema.
READY_PREFIX = "ZATEL_SERVE_READY"


def format_ready_line(host: str, port: int) -> str:
    """The startup line: ``ZATEL_SERVE_READY host=127.0.0.1 port=8700``."""
    return f"{READY_PREFIX} host={host} port={port}"


def parse_ready_line(line: str) -> tuple[str, int] | None:
    """Parse a ready line back into ``(host, port)``; None if not one.

    Tolerates surrounding whitespace and extra trailing ``key=value``
    fields (forward compatibility), but rejects lines missing either
    required field or carrying a non-integer port.
    """
    parts = line.strip().split()
    if not parts or parts[0] != READY_PREFIX:
        return None
    fields = dict(
        part.split("=", 1) for part in parts[1:] if "=" in part
    )
    host, port = fields.get("host"), fields.get("port")
    if not host or port is None:
        return None
    try:
        return host, int(port)
    except ValueError:
        return None

#: Body keys forwarded to :class:`PredictSpec`, with their JSON types.
#: ``scene`` also accepts an object form (recipe/sequence-frame specs).
SPEC_FIELDS: dict[str, type | tuple[type, ...]] = {
    "scene": (str, dict),
    "size": int,
    "spp": int,
    "seed": int,
    "gpu": str,
    "division": str,
    "distribution": str,
    "fraction": (int, float),
    "adaptive": bool,
    "sampler": str,
    "replicates": int,
}


def parse_predict_payload(payload: Any) -> tuple[PredictSpec, bool]:
    """Validate a ``POST /predict`` JSON body.

    Returns ``(spec, wait)``.

    Raises:
        ValueError: on any malformed body — not an object, unknown
            keys, wrong field types, or a semantically invalid spec
            (unknown scene, out-of-range size, ...).  The message is
            safe to return verbatim in a 400 response.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(SPEC_FIELDS) - {"wait"})
    if unknown:
        raise ValueError(
            f"unknown field(s) {', '.join(map(repr, unknown))}; known: "
            f"{', '.join(sorted(SPEC_FIELDS))}, wait"
        )
    if "scene" not in payload:
        raise ValueError("missing required field 'scene'")

    kwargs: dict[str, Any] = {}
    for name, expected in SPEC_FIELDS.items():
        if name not in payload:
            continue
        value = payload[name]
        if name == "fraction" and value is None:
            continue
        # bool is an int subclass; reject True where an int is expected.
        if isinstance(value, bool) and expected is not bool:
            raise ValueError(f"field {name!r} must not be a boolean")
        if not isinstance(value, expected):
            wanted = (
                expected.__name__
                if isinstance(expected, type)
                else " or ".join(t.__name__ for t in expected)
            )
            raise ValueError(
                f"field {name!r} must be {wanted}, "
                f"got {type(value).__name__}"
            )
        kwargs[name] = float(value) if name == "fraction" else value

    if isinstance(kwargs["scene"], dict):
        # Object form: {"recipe"/"library": ..., "knobs": ..., "seed": ...}
        # (SceneSpec.from_value is as strict as this parser).
        kwargs["scene"] = SceneSpec.from_value(kwargs["scene"])
    wait = payload.get("wait", True)
    if not isinstance(wait, bool):
        raise ValueError(f"field 'wait' must be a boolean, got {wait!r}")
    return PredictSpec(**kwargs), wait


def parse_campaign_payload(payload: Any) -> tuple[Campaign, bool]:
    """Validate a ``POST /campaigns`` JSON body.

    Returns ``(campaign, wait)``.  The body is a samplesheet document —
    ``{"campaign": {...defaults...}, "points": [...]}`` — with one extra
    transport-level key, ``wait`` (default true), stripped before the
    samplesheet parser sees it.

    Raises:
        ValueError: on any malformed body; the message names the
            offending row and is safe to return verbatim in a 400.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"request body must be a JSON object, got {type(payload).__name__}"
        )
    wait = payload.get("wait", True)
    if not isinstance(wait, bool):
        raise ValueError(f"field 'wait' must be a boolean, got {wait!r}")
    document = {key: value for key, value in payload.items() if key != "wait"}
    return parse_samplesheet(document), wait
