"""Animated scene sequences: knob and camera interpolation over frames.

A :class:`SceneSequence` describes a short animation of one procedural
recipe: knob values interpolate linearly from ``knobs`` to ``end_knobs``
while the camera orbits the look-at point by ``orbit_degrees`` across
``frames`` frames.  Each frame materializes as a self-contained
``kind="frame"`` :class:`~repro.scene.spec.SceneSpec` — it embeds the
whole sequence definition plus its index, so a job process, a
``GroupExecutor`` worker or a cache key can rebuild frame k without any
out-of-band sequence state.

The campaign engine runs a sequence's frames in order, one wave per
frame index, so a frame that fails its QC gates skips the rest of its
row and a degraded one taints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .spec import SceneSpec, _knob_items

__all__ = ["SceneSequence", "interpolate_knobs"]


def interpolate_knobs(
    start: Mapping[str, float], end: Mapping[str, float], t: float
) -> dict[str, float]:
    """Linear knob interpolation at ``t`` in [0, 1].

    Knobs absent from ``end`` hold their start value.  Monotone in ``t``
    for every knob (each value is a convex combination of its
    endpoints), which sequence tests pin.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"interpolation parameter must be in [0, 1], got {t}")
    return {
        name: (1.0 - t) * value + t * float(end.get(name, value))
        for name, value in start.items()
    }


@dataclass(frozen=True)
class SceneSequence:
    """An animated sequence of one recipe's scenes."""

    recipe: str
    frames: int
    knobs: tuple[tuple[str, float], ...] = ()
    end_knobs: tuple[tuple[str, float], ...] = ()
    seed: int = 0
    orbit_degrees: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "knobs", _knob_items(self.knobs, "knobs"))
        object.__setattr__(
            self, "end_knobs", _knob_items(self.end_knobs, "end_knobs")
        )
        if not isinstance(self.frames, int) or isinstance(self.frames, bool):
            raise ValueError(f"frames must be an integer, got {self.frames!r}")
        if self.frames < 2:
            raise ValueError(
                f"a sequence needs at least 2 frames, got {self.frames}"
            )
        if isinstance(self.orbit_degrees, bool) or not isinstance(
            self.orbit_degrees, (int, float)
        ):
            raise ValueError(
                f"orbit_degrees must be a number, got {self.orbit_degrees!r}"
            )
        # Validate the recipe and both knob endpoints eagerly by building
        # the first frame's spec (SceneSpec.__post_init__ range-checks).
        self.frame_spec(0)

    @classmethod
    def from_value(cls, value: Any) -> "SceneSequence":
        """Parse a samplesheet sequence entry (JSON-ish dict)."""
        if not isinstance(value, dict):
            raise ValueError(
                f"a sequence must be an object, got {type(value).__name__}"
            )
        allowed = {
            "sequence", "frames", "knobs", "end_knobs", "seed", "orbit_degrees",
        }
        unknown = sorted(set(value) - allowed)
        if unknown:
            raise ValueError(
                f"unknown sequence field(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(allowed))}"
            )
        if "sequence" not in value or "frames" not in value:
            raise ValueError(
                "a sequence entry needs 'sequence' (the recipe name) and "
                "'frames'"
            )
        return cls(
            recipe=value["sequence"],
            frames=value["frames"],
            knobs=value.get("knobs") or {},
            end_knobs=value.get("end_knobs") or {},
            seed=value.get("seed", 0),
            orbit_degrees=float(value.get("orbit_degrees", 0.0)),
        )

    def frame_spec(self, frame: int) -> SceneSpec:
        """The self-contained :class:`SceneSpec` of frame ``frame``."""
        return SceneSpec(
            kind="frame",
            name=self.recipe,
            knobs=self.knobs,
            seed=self.seed,
            frame=frame,
            frames=self.frames,
            end_knobs=self.end_knobs,
            orbit_degrees=self.orbit_degrees,
        )

    def frame_specs(self) -> list[SceneSpec]:
        """All frames, in playback order."""
        return [self.frame_spec(frame) for frame in range(self.frames)]
