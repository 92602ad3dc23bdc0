"""INI config files for GPU configurations.

Cycle-level simulators are conventionally driven by config files
(GPGPU-Sim/Accel-Sim style) rather than code edits; this module gives
:class:`~repro.gpu.config.GPUConfig` the same surface::

    [gpu]
    name = MobileSoC
    num_sms = 8
    ...
    [l1d]
    size_kb = 64
    ...

``configs/`` at the repository root ships the two Table II presets in
this format; ``python -m repro simulate PARK --gpu configs/mobile_soc.ini``
loads one directly.
"""

from __future__ import annotations

import configparser
import dataclasses
from pathlib import Path

from .config import CacheConfig, GPUConfig

__all__ = ["save_config", "load_config", "resolve_gpu"]

#: GPUConfig scalar fields serialized under ``[gpu]`` (in file order).
_GPU_FIELDS = (
    "name",
    "num_sms",
    "num_mem_partitions",
    "registers_per_sm",
    "max_warps_per_sm",
    "warp_size",
    "registers_per_thread",
    "rt_units_per_sm",
    "rt_max_warps",
    "rt_mshr_size",
    "rt_step_cycles",
    "rt_fetch_pipeline",
    "rt_prefetch_depth",
    "interconnect_latency",
    "l2_service_cycles",
    "dram_latency",
    "dram_bytes_per_cycle_per_channel",
    "issue_width",
    "alu_latency",
    "warp_scheduler",
    "telemetry_interval",
    "timeline_trace",
)

#: ``[gpu]`` keys parsed as strings / booleans (everything else is int).
_STR_FIELDS = ("name", "warp_scheduler")
_BOOL_FIELDS = ("timeline_trace",)

#: Cache-valued fields, each serialized as its own section.
_CACHE_FIELDS = ("l1d", "l2_slice", "icache")

#: Keys every cache section must carry.
_CACHE_KEYS = ("size_bytes", "line_bytes", "associativity", "latency")

_KNOWN_SECTIONS = ("gpu",) + _CACHE_FIELDS


def _parse_int(path: Path, section: str, key: str, raw: str) -> int:
    """``int(raw)`` with a one-line actionable error naming the file,
    section and key — a typo in an INI must not surface as a bare
    ``invalid literal for int()``."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{path}: [{section}] key {key!r} must be an integer, "
            f"got {raw!r}"
        ) from None


def _parse_bool(path: Path, section: str, key: str, raw: str) -> bool:
    """INI-style boolean parse (``bool("False")`` would be True, and the
    stage-graph fingerprint distinguishes bool from int tokens, so the
    value must round-trip as a real bool)."""
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(
        f"{path}: [{section}] key {key!r} must be a boolean "
        f"(true/false), got {raw!r}"
    )


def save_config(config: GPUConfig, path: str | Path) -> Path:
    """Write ``config`` as an INI file; returns the path."""
    parser = configparser.ConfigParser()
    parser["gpu"] = {
        field: str(getattr(config, field)) for field in _GPU_FIELDS
    }
    for field in _CACHE_FIELDS:
        cache: CacheConfig = getattr(config, field)
        parser[field] = {
            "size_bytes": str(cache.size_bytes),
            "line_bytes": str(cache.line_bytes),
            "associativity": str(cache.associativity),
            "latency": str(cache.latency),
        }
    path = Path(path)
    with path.open("w") as f:
        f.write("; GPU configuration for the Zatel reproduction simulator\n")
        f.write("; (see src/repro/gpu/config.py for field documentation)\n")
        parser.write(f)
    return path


def load_config(path: str | Path) -> GPUConfig:
    """Parse an INI file back into a :class:`GPUConfig`.

    Unknown sections and keys are rejected (typos should fail loudly, not
    silently use a default); missing keys fall back to the dataclass
    defaults.  Every parse failure is a one-line, actionable
    ``ValueError`` naming the file, section, and key.

    Raises:
        ValueError: on malformed INI syntax, a missing ``[gpu]`` section,
            unknown sections or keys, non-numeric values, missing cache
            keys, or values the :class:`GPUConfig` validators refuse.
        FileNotFoundError: if ``path`` does not exist.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as error:
        raise ValueError(
            f"{path}: malformed INI: {error.message.splitlines()[0]}"
        ) from None
    if "gpu" not in parser:
        raise ValueError(f"{path}: missing [gpu] section")
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            known = ", ".join(f"[{s}]" for s in _KNOWN_SECTIONS)
            raise ValueError(
                f"{path}: unknown section [{section}]; expected one of "
                f"{known}"
            )

    kwargs: dict = {}
    for key, raw in parser["gpu"].items():
        if key not in _GPU_FIELDS:
            raise ValueError(f"{path}: unknown [gpu] key {key!r}")
        if key in _STR_FIELDS:
            kwargs[key] = raw
        elif key in _BOOL_FIELDS:
            kwargs[key] = _parse_bool(path, "gpu", key, raw)
        else:
            kwargs[key] = _parse_int(path, "gpu", key, raw)

    for section in _CACHE_FIELDS:
        if section not in parser:
            continue
        values = parser[section]
        extra = set(values) - set(_CACHE_KEYS)
        if extra:
            raise ValueError(f"{path}: unknown [{section}] keys {sorted(extra)}")
        missing = [key for key in _CACHE_KEYS if key not in values]
        if missing:
            raise ValueError(
                f"{path}: [{section}] missing required key(s) "
                f"{', '.join(repr(k) for k in missing)}"
            )
        kwargs[section] = CacheConfig(
            **{
                key: _parse_int(path, section, key, values[key])
                for key in _CACHE_KEYS
            }
        )
    missing = [
        field.name
        for field in dataclasses.fields(GPUConfig)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
        and field.name not in kwargs
    ]
    if missing:
        raise ValueError(
            f"{path}: [gpu] missing required key(s) "
            f"{', '.join(repr(k) for k in missing)}"
        )
    return GPUConfig(**kwargs)


def resolve_gpu(name_or_path: str) -> GPUConfig:
    """A preset short name (``mobile``/``rtx2060``) or an INI file path."""
    from .config import preset

    candidate = Path(name_or_path)
    if candidate.suffix == ".ini" or candidate.exists():
        return load_config(candidate)
    return preset(name_or_path)
