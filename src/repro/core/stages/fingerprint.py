"""Deterministic fingerprints for stages and artifacts.

Every artifact in the stage graph is addressed by the fingerprint of the
computation that produced it: stage name + stage code version + stage
parameters + the fingerprints of its upstream artifacts.  Two sweep
points whose profiling inputs coincide therefore resolve to the *same*
heatmap key: the first point to need it runs the profile stage and the
others read it from the store, so a sweep profiles each scene once.

:func:`stable_hash` is the single hashing primitive.  It canonicalizes a
restricted value vocabulary (scalars, strings, bytes, sequences, sorted
mappings, dataclasses, paths) into an unambiguous token stream and
SHA-256 hashes it.  It intentionally rejects anything else: silently
hashing ``repr()`` of an arbitrary object would make cache keys depend
on memory addresses.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import PurePath
from typing import Any

__all__ = [
    "stable_hash",
    "frame_fingerprint",
    "gpu_fingerprint",
    "scene_fingerprint",
]


def _feed(hasher, obj: Any) -> None:
    """Serialize ``obj`` into ``hasher`` as an unambiguous token stream.

    Every token is length- or type-prefixed so distinct structures can
    never collide by concatenation (e.g. ``("ab", "c")`` vs ``("a",
    "bc")``).
    """
    if obj is None:
        hasher.update(b"N;")
    elif isinstance(obj, bool):  # before int: bool is an int subclass
        hasher.update(b"B1;" if obj else b"B0;")
    elif isinstance(obj, int):
        encoded = str(obj).encode()
        hasher.update(b"I%d:%s;" % (len(encoded), encoded))
    elif isinstance(obj, float):
        # ``float(...)``: a subclass (``np.float64``) has a version-dependent
        # repr, but must hash like the equal Python float.
        encoded = repr(float(obj)).encode()
        hasher.update(b"F%d:%s;" % (len(encoded), encoded))
    elif isinstance(obj, str):
        encoded = obj.encode("utf-8")
        hasher.update(b"S%d:%s;" % (len(encoded), encoded))
    elif isinstance(obj, bytes):
        hasher.update(b"Y%d:%s;" % (len(obj), obj))
    elif isinstance(obj, PurePath):
        _feed(hasher, str(obj))
    elif isinstance(obj, (tuple, list)):
        hasher.update(b"L%d:" % len(obj))
        for item in obj:
            _feed(hasher, item)
        hasher.update(b";")
    elif isinstance(obj, (set, frozenset)):
        hasher.update(b"E%d:" % len(obj))
        for item in sorted(obj, key=repr):
            _feed(hasher, item)
        hasher.update(b";")
    elif isinstance(obj, dict):
        hasher.update(b"D%d:" % len(obj))
        for key in sorted(obj, key=repr):
            _feed(hasher, key)
            _feed(hasher, obj[key])
        hasher.update(b";")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        hasher.update(b"C")
        _feed(hasher, f"{cls.__module__}.{cls.__qualname__}")
        for f in dataclasses.fields(obj):
            _feed(hasher, f.name)
            _feed(hasher, getattr(obj, f.name))
        hasher.update(b";")
    else:
        raise TypeError(
            f"cannot fingerprint {type(obj).__name__!r} values; "
            "use scalars, strings, sequences, mappings or dataclasses"
        )


def stable_hash(*parts: Any) -> str:
    """Hex SHA-256 of the canonical encoding of ``parts``.

    Stable across processes and Python versions (no ``hash()``
    randomization, no ``id()``/``repr()`` of arbitrary objects).
    """
    hasher = hashlib.sha256()
    _feed(hasher, parts)
    return hasher.hexdigest()


def frame_fingerprint(frame) -> str:
    """Identity of a :class:`~repro.tracer.trace.FrameTrace` input.

    Keyed by the workload coordinates plus cheap content summaries
    (pixel count and total cost), so regenerating a trace after a
    tracer-model change — which perturbs per-pixel costs — changes the
    key even at identical resolution.
    """
    return stable_hash(
        "frame",
        frame.scene_name,
        frame.width,
        frame.height,
        frame.samples_per_pixel,
        len(frame.pixels),
        frame.total_cost(),
    )


def gpu_fingerprint(gpu) -> str:
    """Identity of a full :class:`~repro.gpu.config.GPUConfig`.

    Hashes *every* field (it is a frozen dataclass), not just the name —
    two configs that share a name but differ in any architectural knob
    must never collide (the stale-simulation bug this fingerprint
    exists to prevent).
    """
    return stable_hash("gpu", gpu)


def scene_fingerprint(scene) -> str:
    """Identity of a scene: its spec plus name and geometry summary.

    Library scenes are procedurally deterministic per name; the
    triangle/node counts catch a generator change that keeps the name.
    The :class:`~repro.scene.spec.SceneSpec` (when the registry built
    the scene) separates identities the display name conflates: two
    ``saturation`` recipes with different seeds share ``SAT040`` but
    must never share artifacts, and each frame of an animated sequence
    is its own workload.
    """
    return stable_hash(
        "scene",
        scene.name,
        scene.triangle_count(),
        scene.node_count(),
        scene.max_bounces,
        getattr(scene, "spec", None),
    )
