"""Scene identity as data: the :class:`SceneSpec`.

Historically "a scene" meant a library name string (``"SPRNG"``), which
breaks down the moment scenes are *generated*: two
``saturation_scene(level=0.4)`` calls with different seeds share the
display name ``SAT040`` but are different workloads, and an animated
sequence has no name at all.  A :class:`SceneSpec` is the first-class,
picklable identity every layer (fingerprints, caches, the specs sent
to job processes, service payloads) keys on instead:

* ``kind="library"`` — one of the fixed LumiBench-like library scenes;
* ``kind="recipe"`` — a procedural generator plus its knob values and
  seed (see :mod:`repro.scene.registry` for the generator catalogue);
* ``kind="frame"`` — frame N of an animated sequence: a recipe whose
  knobs interpolate linearly from ``knobs`` to ``end_knobs`` over
  ``frames`` frames, with an optional camera orbit.

Identity is *content*: :meth:`SceneSpec.fingerprint` hashes every field
through :func:`~repro.core.stages.fingerprint.stable_hash`, so equal
specs share caches and artifacts while a changed knob, seed or frame index
never collides.  Construction validates eagerly (unknown library scene,
unknown recipe, out-of-range knob all raise ``ValueError``), matching
:class:`~repro.core.stages.requests.PredictSpec`'s contract that a spec
that exists is a spec the pipeline can build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["SceneSpec", "as_scene_spec", "scene_label"]

_KINDS = ("library", "recipe", "frame")


def _knob_items(knobs: Any, label: str) -> tuple[tuple[str, float], ...]:
    """Canonicalize a knob mapping into sorted ``(name, value)`` pairs."""
    if knobs is None:
        return ()
    if isinstance(knobs, Mapping):
        items = knobs.items()
    elif isinstance(knobs, (tuple, list)):
        items = list(knobs)
    else:
        raise ValueError(
            f"{label} must be a mapping of knob name to number, "
            f"got {type(knobs).__name__}"
        )
    canonical = []
    for item in items:
        try:
            name, value = item
        except (TypeError, ValueError):
            raise ValueError(
                f"{label} must be a mapping of knob name to number"
            ) from None
        if not isinstance(name, str):
            raise ValueError(f"knob names must be strings, got {name!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"knob {name!r} must be a number, got {value!r}"
            )
        canonical.append((name, float(value)))
    canonical.sort()
    return tuple(canonical)


@dataclass(frozen=True)
class SceneSpec:
    """One scene identity: library name, recipe, or sequence frame."""

    kind: str
    #: Library scene name (``kind="library"``) or recipe name otherwise.
    name: str
    #: Recipe knob values as sorted ``(name, value)`` pairs; for
    #: ``kind="frame"`` these are the knobs at the *start* of the sequence.
    knobs: tuple[tuple[str, float], ...] = ()
    seed: int = 0
    #: Sequence position (``kind="frame"`` only): ``frame`` of ``frames``.
    frame: int = 0
    frames: int = 1
    #: Knob values at the end of the sequence; empty means "same as start".
    end_knobs: tuple[tuple[str, float], ...] = field(default=())
    #: Total camera azimuth sweep (degrees) across the sequence; the
    #: camera orbits the look-at point linearly over the frames.
    orbit_degrees: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown scene-spec kind {self.kind!r}; "
                f"expected one of {', '.join(_KINDS)}"
            )
        object.__setattr__(self, "knobs", _knob_items(self.knobs, "knobs"))
        object.__setattr__(
            self, "end_knobs", _knob_items(self.end_knobs, "end_knobs")
        )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.kind == "library":
            from .library import EXTRA_SCENES, SCENE_NAMES

            known = SCENE_NAMES + EXTRA_SCENES
            if self.name not in known:
                raise ValueError(
                    f"unknown scene {self.name!r}; available: "
                    f"{', '.join(known)}"
                )
            if self.knobs or self.end_knobs or self.frames != 1:
                raise ValueError(
                    "library scenes take no knobs, seed variations or frames"
                )
            return
        if self.kind == "recipe":
            if self.frames != 1 or self.frame != 0:
                raise ValueError(
                    "a plain recipe has no frames; use kind='frame' for "
                    "sequence members"
                )
            if self.end_knobs:
                raise ValueError("end_knobs only apply to sequence frames")
        else:  # frame
            if not isinstance(self.frames, int) or self.frames < 2:
                raise ValueError(
                    f"a sequence needs at least 2 frames, got {self.frames!r}"
                )
            if not 0 <= self.frame < self.frames:
                raise ValueError(
                    f"frame index {self.frame} out of range for a "
                    f"{self.frames}-frame sequence"
                )
            extra = sorted(
                {name for name, _ in self.end_knobs}
                - {name for name, _ in self.knobs}
            )
            if extra:
                raise ValueError(
                    "end_knobs may only vary knobs present at the start of "
                    f"the sequence; unknown: {', '.join(map(repr, extra))}"
                )
        # Recipe existence + knob ranges (raises ValueError with the
        # offending knob and its valid range).
        from .registry import validate_recipe_knobs

        validate_recipe_knobs(self.name, dict(self.knobs))
        if self.end_knobs:
            validate_recipe_knobs(self.name, dict(self.end_knobs))

    # -- constructors ---------------------------------------------------

    @classmethod
    def library(cls, name: str) -> "SceneSpec":
        """The library scene called ``name``."""
        return cls(kind="library", name=name)

    @classmethod
    def recipe(
        cls, name: str, knobs: Mapping[str, float] | None = None, seed: int = 0
    ) -> "SceneSpec":
        """A procedural scene: generator ``name`` at ``knobs`` and ``seed``."""
        return cls(kind="recipe", name=name, knobs=knobs or {}, seed=seed)

    @classmethod
    def from_value(cls, value: Any) -> "SceneSpec":
        """Parse a JSON-ish scene value (samplesheet rows, service bodies).

        Accepts a bare library name string, ``{"library": name}``, or
        ``{"recipe": name, "knobs": {...}, "seed": n}``.  Sequence
        entries expand through
        :class:`~repro.scene.animation.SceneSequence`, not here.
        """
        if isinstance(value, SceneSpec):
            return value
        if isinstance(value, str):
            return cls.library(value)
        if not isinstance(value, dict):
            raise ValueError(
                "a scene must be a library name string or an object with "
                f"'library' or 'recipe', got {type(value).__name__}"
            )
        unknown = sorted(set(value) - {"library", "recipe", "knobs", "seed"})
        if unknown:
            raise ValueError(
                f"unknown scene field(s) {', '.join(map(repr, unknown))}; "
                "known: library, recipe, knobs, seed"
            )
        if ("library" in value) == ("recipe" in value):
            raise ValueError(
                "a scene object needs exactly one of 'library' or 'recipe'"
            )
        if "library" in value:
            if "knobs" in value or "seed" in value:
                raise ValueError("library scenes take no knobs or seed")
            return cls.library(value["library"])
        seed = value.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"scene seed must be an integer, got {seed!r}")
        return cls.recipe(value["recipe"], value.get("knobs"), seed=seed)

    # -- derived views --------------------------------------------------

    def fingerprint(self) -> str:
        """Content address of this scene identity."""
        from ..core.stages.fingerprint import stable_hash

        return stable_hash(
            "scene_spec",
            1,  # spec schema version
            self.kind,
            self.name,
            self.knobs,
            self.seed,
            self.frame,
            self.frames,
            self.end_knobs,
            self.orbit_degrees,
        )

    def progress(self) -> float:
        """Position in the sequence as t in [0, 1] (0 for non-frames)."""
        if self.kind != "frame" or self.frames <= 1:
            return 0.0
        return self.frame / (self.frames - 1)

    def resolved_knobs(self) -> dict[str, float]:
        """Effective knob values, interpolated for sequence frames."""
        start = dict(self.knobs)
        if self.kind != "frame" or not self.end_knobs:
            return start
        t = self.progress()
        end = dict(self.end_knobs)
        return {
            name: (1.0 - t) * value + t * end.get(name, value)
            for name, value in start.items()
        }

    def frame_orbit(self) -> float:
        """Camera azimuth offset (degrees) at this frame."""
        return self.orbit_degrees * self.progress()

    def label(self) -> str:
        """Compact human-readable identity for tables and payloads."""
        if self.kind == "library":
            return self.name
        knobs = ",".join(
            f"{name}={value:g}" for name, value in self.resolved_knobs().items()
        )
        base = f"{self.name}[{knobs}]" if knobs else self.name
        if self.seed:
            base += f"#s{self.seed}"
        if self.kind == "frame":
            base += f"@f{self.frame}/{self.frames}"
        return base

    def payload(self) -> Any:
        """JSON-able form (inverse of :meth:`from_value` for non-frames)."""
        if self.kind == "library":
            return self.name
        body: dict[str, Any] = {"recipe": self.name, "knobs": dict(self.knobs)}
        if self.seed:
            body["seed"] = self.seed
        if self.kind == "frame":
            body.update(
                frame=self.frame,
                frames=self.frames,
                end_knobs=dict(self.end_knobs),
                orbit_degrees=self.orbit_degrees,
            )
        return body


def as_scene_spec(value: "SceneSpec | str") -> SceneSpec:
    """Normalize a legacy scene-name string into a :class:`SceneSpec`."""
    if isinstance(value, SceneSpec):
        return value
    if isinstance(value, str):
        return SceneSpec.library(value)
    raise ValueError(
        f"expected a SceneSpec or library scene name, got {type(value).__name__}"
    )


def scene_label(value: "SceneSpec | str") -> str:
    """Display label for either a spec or a legacy name string."""
    return value if isinstance(value, str) else value.label()
