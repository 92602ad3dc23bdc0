"""The scene registry: one factory for library scenes and recipes.

:mod:`~repro.scene.library` and :mod:`~repro.scene.generators` used to be
separate worlds — named scenes went through a cached ``make_scene`` while
generated scenes were built ad hoc at every call site.  The registry
unifies them behind :class:`~repro.scene.spec.SceneSpec`:

* :data:`RECIPES` catalogues every generator with typed, range-checked
  knobs, so a samplesheet (or service payload) fails loudly on an
  out-of-range or misspelled knob instead of building a nonsense scene;
* :func:`build_scene_from_spec` constructs any spec kind — library,
  recipe, or interpolated sequence frame (knobs *and* camera orbit);
* :func:`resolve_scene` is the process-wide scene cache.  Unlike the old
  unbounded ``lru_cache`` over names (safe for 11 library scenes, a leak
  under procedural sweeps that mint unlimited distinct specs), it keys
  by content fingerprint with an LRU bound — equal-content specs share
  one instance, and old recipe scenes age out.

Every scene built here carries its spec on ``scene.spec``, which is what
lets fingerprints, job processes and ``GroupExecutor`` workers
round-trip scene identity without the library.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping

from .camera import Camera
from .scene import Scene
from .spec import SceneSpec, as_scene_spec
from .vecmath import vec3

__all__ = [
    "Knob",
    "Recipe",
    "RECIPES",
    "RECIPE_NAMES",
    "validate_recipe_knobs",
    "build_scene_from_spec",
    "resolve_scene",
    "scene_cache_info",
    "clear_scene_cache",
]


@dataclass(frozen=True)
class Knob:
    """One generator parameter: default value and valid closed range."""

    name: str
    default: float
    lo: float
    hi: float
    #: Integer knobs are rounded after sequence interpolation.
    integer: bool = False


@dataclass(frozen=True)
class Recipe:
    """A registered procedural generator and its knob schema."""

    name: str
    build: Callable[[dict[str, float], int], Scene]
    knobs: tuple[Knob, ...]

    def knob(self, name: str) -> Knob:
        for knob in self.knobs:
            if knob.name == name:
                return knob
        raise KeyError(name)


def _build_saturation(knobs: dict[str, float], seed: int) -> Scene:
    from .generators import saturation_scene

    return saturation_scene(knobs["level"], seed=seed)


def _build_clutter(knobs: dict[str, float], seed: int) -> Scene:
    from .generators import clutter_scene

    return clutter_scene(
        int(knobs["triangles_target"]),
        seed=seed,
        reflective_share=knobs["reflective_share"],
    )


RECIPES: dict[str, Recipe] = {
    "saturation": Recipe(
        name="saturation",
        build=_build_saturation,
        knobs=(Knob("level", default=0.5, lo=0.0, hi=1.0),),
    ),
    "clutter": Recipe(
        name="clutter",
        build=_build_clutter,
        knobs=(
            Knob("triangles_target", default=2000.0, lo=1.0, hi=50000.0,
                 integer=True),
            Knob("reflective_share", default=0.2, lo=0.0, hi=1.0),
        ),
    ),
}

RECIPE_NAMES = tuple(sorted(RECIPES))


def validate_recipe_knobs(
    recipe: str, knobs: Mapping[str, float]
) -> dict[str, float]:
    """Resolve ``knobs`` against a recipe's schema.

    Fills defaults, coerces integer knobs, and raises ``ValueError``
    naming the offending knob and its valid range for anything unknown
    or out of range.
    """
    try:
        entry = RECIPES[recipe]
    except KeyError:
        raise ValueError(
            f"unknown scene recipe {recipe!r}; available: "
            f"{', '.join(RECIPE_NAMES)}"
        ) from None
    known = {knob.name for knob in entry.knobs}
    unknown = sorted(set(knobs) - known)
    if unknown:
        raise ValueError(
            f"unknown knob(s) {', '.join(map(repr, unknown))} for recipe "
            f"{recipe!r}; known: {', '.join(sorted(known))}"
        )
    resolved: dict[str, float] = {}
    for knob in entry.knobs:
        value = float(knobs.get(knob.name, knob.default))
        if not knob.lo <= value <= knob.hi:
            raise ValueError(
                f"knob {knob.name!r} of recipe {recipe!r} must be in "
                f"[{knob.lo:g}, {knob.hi:g}], got {value:g}"
            )
        resolved[knob.name] = float(round(value)) if knob.integer else value
    return resolved


def _orbit_camera(camera: Camera, degrees: float) -> Camera:
    """The camera rotated ``degrees`` about the look-at point's Y axis."""
    angle = math.radians(degrees)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    offset = camera.position - camera.look_at
    rotated = vec3(
        cos_a * float(offset[0]) + sin_a * float(offset[2]),
        float(offset[1]),
        -sin_a * float(offset[0]) + cos_a * float(offset[2]),
    )
    return Camera(
        position=camera.look_at + rotated,
        look_at=camera.look_at,
        fov_degrees=camera.fov_degrees,
    )


def build_scene_from_spec(spec: "SceneSpec | str") -> Scene:
    """Construct a fresh scene from any spec kind (uncached)."""
    spec = as_scene_spec(spec)
    if spec.kind == "library":
        from .library import build_scene

        scene = build_scene(spec.name)
    else:
        recipe = RECIPES[spec.name]
        knobs = validate_recipe_knobs(spec.name, spec.resolved_knobs())
        scene = recipe.build(knobs, spec.seed)
        orbit = spec.frame_orbit()
        if orbit:
            scene.camera = _orbit_camera(scene.camera, orbit)
    scene.spec = spec
    return scene


#: LRU bound of the process-wide scene cache.  Generous for interactive
#: use (the whole library plus a sweep's worth of recipes stay resident)
#: while keeping long procedural campaigns from growing without bound.
SCENE_CACHE_MAX = 32

_cache: OrderedDict[str, Scene] = OrderedDict()
_cache_lock = threading.Lock()
_cache_hits = 0
_cache_misses = 0


def resolve_scene(spec: "SceneSpec | str") -> Scene:
    """The process-cached scene for a spec (or legacy library name).

    Cached by *content fingerprint* with an LRU bound: two specs with
    equal knobs and seed share one :class:`Scene` instance regardless of
    object identity, and the least-recently-used scene is evicted once
    :data:`SCENE_CACHE_MAX` distinct scenes are resident.
    """
    global _cache_hits, _cache_misses
    spec = as_scene_spec(spec)
    key = spec.fingerprint()
    with _cache_lock:
        scene = _cache.get(key)
        if scene is not None:
            _cache.move_to_end(key)
            _cache_hits += 1
            return scene
        _cache_misses += 1
        scene = build_scene_from_spec(spec)
        _cache[key] = scene
        while len(_cache) > SCENE_CACHE_MAX:
            _cache.popitem(last=False)
        return scene


def scene_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the scene cache (for tests and /metrics)."""
    with _cache_lock:
        return {
            "hits": _cache_hits,
            "misses": _cache_misses,
            "size": len(_cache),
            "max": SCENE_CACHE_MAX,
        }


def clear_scene_cache() -> None:
    """Drop every cached scene (tests use this to isolate cache state)."""
    global _cache_hits, _cache_misses
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0
