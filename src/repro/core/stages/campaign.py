"""Campaign engine: samplesheet-driven scene-recipe grids over one store.

A *campaign* generalizes the :class:`~.sweep.SweepPlanner` grid from
"library scenes x GPU configs" to the full scene vocabulary of
:class:`~repro.scene.spec.SceneSpec` — library names, procedural recipes
with knobs and seeds, and frames of animated sequences — crossed with
GPU configs, methodology configs and samplers, loaded from a
declarative TOML/JSON *samplesheet* and resolved point by point over a
shared artifact store, so points that share a scene share its stages.

Three things distinguish a campaign from a plain sweep:

* **scene recipes** — every point carries a full
  :class:`~repro.scene.spec.SceneSpec`, so two recipe points with equal
  knobs share one cached scene (and their profile/quantize stages dedup
  by content fingerprint) while a changed knob or seed never collides;
* **sequences** — an animated row expands into per-frame points that
  execute in frame-ordered *waves*, so each frame's QC verdict is known
  before the next frame of its row runs;
* **QC gates** — each point may declare quality gates (minimum plane
  coverage, maximum relative confidence-interval half-width) that mark
  its outcome ``degraded`` or ``failed``; a failed sequence frame skips
  the remaining frames of its row, a degraded one taints them.

Layering: this module returns raw :class:`CampaignResult` objects; the
JSON-able report artifact lives in :mod:`repro.harness.reporting`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Any, Callable

from ...scene.animation import SceneSequence
from ...scene.spec import SceneSpec
from .base import StageCounters
from .fingerprint import gpu_fingerprint, stable_hash
from .store import ArtifactStore
from .sweep import SweepPlanner, SweepPoint

__all__ = [
    "QCGates",
    "CampaignPoint",
    "Campaign",
    "CampaignOutcome",
    "CampaignResult",
    "CampaignPlanner",
    "parse_samplesheet",
    "load_samplesheet",
    "load_samplesheet_document",
    "campaign_fingerprint",
]

#: Outcome verdicts, from best to worst.  ``skipped`` marks sequence
#: frames never executed because an earlier frame of their row failed.
VERDICTS = ("pass", "degraded", "failed", "skipped")

_ON_VIOLATION = ("degrade", "fail")


@dataclass(frozen=True)
class QCGates:
    """Declarative quality gates evaluated on a point's result.

    ``min_coverage`` bounds the surviving plane coverage of a (possibly
    fault-degraded) prediction from below.  ``max_ci_half_width`` bounds
    the *relative* 95% confidence-interval half-width (half-width divided
    by the predicted value) of every metric carrying a variance; a
    result with **no** confidence intervals — e.g. the default
    single-replicate ``heatmap`` sampler — violates this gate by
    definition, because the campaign demanded a precision statement the
    result cannot make.  ``on_violation`` picks the verdict a violation
    produces: ``"degrade"`` (run downstream frames, taint their verdict)
    or ``"fail"`` (skip the remaining frames of the row).
    """

    min_coverage: float | None = None
    max_ci_half_width: float | None = None
    on_violation: str = "degrade"

    def __post_init__(self) -> None:
        if self.min_coverage is not None:
            if (
                isinstance(self.min_coverage, bool)
                or not isinstance(self.min_coverage, (int, float))
                or not 0.0 < float(self.min_coverage) <= 1.0
            ):
                raise ValueError(
                    f"min_coverage must be in (0, 1], got {self.min_coverage!r}"
                )
        if self.max_ci_half_width is not None:
            if (
                isinstance(self.max_ci_half_width, bool)
                or not isinstance(self.max_ci_half_width, (int, float))
                or float(self.max_ci_half_width) <= 0.0
            ):
                raise ValueError(
                    "max_ci_half_width must be a positive number, "
                    f"got {self.max_ci_half_width!r}"
                )
        if self.on_violation not in _ON_VIOLATION:
            raise ValueError(
                f"on_violation must be one of {', '.join(_ON_VIOLATION)}, "
                f"got {self.on_violation!r}"
            )

    @property
    def active(self) -> bool:
        return self.min_coverage is not None or self.max_ci_half_width is not None

    def check(self, value: Any) -> list[str]:
        """Human-readable violations of these gates by ``value``."""
        violations: list[str] = []
        if self.min_coverage is not None:
            coverage = getattr(value, "coverage", None)
            if coverage is None:
                violations.append(
                    "min_coverage gate set but the result reports no "
                    "plane coverage"
                )
            elif coverage < float(self.min_coverage):
                violations.append(
                    f"coverage {coverage:.1%} below the "
                    f"{float(self.min_coverage):.1%} gate"
                )
        if self.max_ci_half_width is not None:
            intervals_fn = getattr(value, "confidence_intervals", None)
            intervals = intervals_fn() if callable(intervals_fn) else {}
            if not intervals:
                violations.append(
                    "max_ci_half_width gate set but the result carries no "
                    "confidence intervals (use a replicated sampler)"
                )
            metrics = getattr(value, "metrics", None) or {}
            bound = float(self.max_ci_half_width)
            for name in sorted(intervals):
                lo, hi = intervals[name]
                half = (hi - lo) / 2.0
                center = abs(metrics.get(name, 0.0))
                if center <= 1e-12:
                    relative = 0.0 if half <= 1e-12 else float("inf")
                else:
                    relative = half / center
                if relative > bound:
                    violations.append(
                        f"{name} CI half-width is {relative:.1%} of the "
                        f"prediction, above the {bound:.1%} gate"
                    )
        return violations


@dataclass(frozen=True)
class CampaignPoint:
    """One cell of a campaign grid: a scene spec at workload coordinates.

    The sweep-level fields (``gpu``, ``config``, ``mode``, ``fraction``)
    mean exactly what they do on :class:`~.sweep.SweepPoint`; the
    workload fields (``size``/``spp``/``seed``) locate the
    frame trace, and ``row`` ties sequence frames expanded from the same
    samplesheet row together for QC-gate propagation and cache
    carry-over.
    """

    spec: SceneSpec
    gpu: Any  # GPUConfig
    config: Any = None  # ZatelConfig; None means defaults
    mode: str = "zatel"
    fraction: float | None = None
    size: int = 64
    spp: int = 1
    seed: int = 0
    gates: QCGates = QCGates()
    row: int = 0

    def scene_token(self) -> str:
        """Synthetic scene key for the underlying sweep planner.

        The sweep planner keys scenes and frames by string; campaigns
        key them by *content* — the spec fingerprint plus the workload
        coordinates that shape the frame trace — so equal recipes
        collapse and distinct seeds or frames never collide.
        """
        return (
            f"{self.spec.fingerprint()}:{self.size}x{self.size}"
            f"x{self.spp}:s{self.seed}"
        )

    def sweep_point(self) -> SweepPoint:
        return SweepPoint(
            scene=self.scene_token(),
            gpu=self.gpu,
            config=self.config,
            mode=self.mode,
            fraction=self.fraction,
        )

    def chain_key(self) -> tuple:
        """Groups the frames of one (row, GPU) sequence chain."""
        return (self.row, gpu_fingerprint(self.gpu))

    def describe(self) -> str:
        suffix = self.mode
        if self.mode == "sampling":
            suffix = f"sampling@{self.fraction:.0%}"
        return f"{self.spec.label()}/{self.gpu.name}/{suffix}"


@dataclass(frozen=True)
class Campaign:
    """A named, validated list of campaign points (samplesheet rows
    expanded across GPU grids and sequence frames)."""

    name: str
    points: tuple[CampaignPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a campaign needs at least one point")

    def fingerprint(self) -> str:
        return campaign_fingerprint(self)


def campaign_fingerprint(campaign: Campaign) -> str:
    """Content address of a whole campaign definition."""
    return stable_hash(
        "campaign",
        1,  # campaign schema version
        campaign.name,
        [
            (
                point.spec.fingerprint(),
                gpu_fingerprint(point.gpu),
                point.config,
                point.mode,
                point.fraction,
                point.size,
                point.spp,
                point.seed,
                point.gates,
                point.row,
            )
            for point in campaign.points
        ],
    )


# ----------------------------------------------------------------------
# samplesheet parsing
# ----------------------------------------------------------------------

_CAMPAIGN_KEYS = {"name", "size", "spp", "seed", "gpus", "qc"}
_ROW_KEYS = {
    "scene", "gpu", "gpus", "mode", "fraction",
    "size", "spp", "seed", "config", "qc",
}
_QC_KEYS = {"min_coverage", "max_ci_half_width", "on_violation"}


def _parse_qc(value: Any, where: str) -> QCGates:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: qc must be an object, got {type(value).__name__}")
    unknown = sorted(set(value) - _QC_KEYS)
    if unknown:
        raise ValueError(
            f"{where}: unknown qc field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(_QC_KEYS))}"
        )
    try:
        return QCGates(**value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_config(value: Any, where: str):
    from ..pipeline import ZatelConfig

    if not isinstance(value, dict):
        raise ValueError(
            f"{where}: config must be an object of ZatelConfig knobs, "
            f"got {type(value).__name__}"
        )
    known = {f.name for f in dataclass_fields(ZatelConfig)}
    unknown = sorted(set(value) - known)
    if unknown:
        raise ValueError(
            f"{where}: unknown config field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    try:
        return ZatelConfig(**value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_scene(value: Any, where: str) -> list[SceneSpec]:
    """A row's scene value as an ordered list of per-point specs."""
    try:
        if isinstance(value, dict) and "sequence" in value:
            return list(SceneSequence.from_value(value).frame_specs())
        return [SceneSpec.from_value(value)]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _check_int(value: Any, name: str, where: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: {name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{where}: {name} must be >= {minimum}, got {value}")
    return value


def parse_samplesheet(data: Any, name: str = "campaign") -> Campaign:
    """Validate a samplesheet document into a :class:`Campaign`.

    The document is a mapping with an optional ``campaign`` table of
    defaults (``name``, ``size``, ``spp``, ``seed``, ``gpus``, ``qc``)
    and a required non-empty ``points`` list.  Every row takes a
    ``scene`` (library name string, ``{"recipe": ...}`` object or
    ``{"sequence": ...}`` object that expands to per-frame points), an
    optional ``gpu``/``gpus`` override, ``mode``/``fraction``
    as on sweeps, workload coordinates, a ``config`` object of
    :class:`~repro.core.pipeline.ZatelConfig` knobs and a ``qc`` gate
    object.  Unknown keys anywhere are rejected with the offending row
    named — a samplesheet that parses is a samplesheet that runs.
    """
    from ...gpu.configfile import resolve_gpu

    if not isinstance(data, dict):
        raise ValueError(
            f"a samplesheet must be a mapping, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - {"campaign", "points"})
    if unknown:
        raise ValueError(
            f"unknown samplesheet section(s) {', '.join(map(repr, unknown))}; "
            "known: campaign, points"
        )
    defaults = data.get("campaign", {})
    if not isinstance(defaults, dict):
        raise ValueError("the campaign section must be a table of defaults")
    unknown = sorted(set(defaults) - _CAMPAIGN_KEYS)
    if unknown:
        raise ValueError(
            f"campaign: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(sorted(_CAMPAIGN_KEYS))}"
        )
    campaign_name = defaults.get("name", name)
    if not isinstance(campaign_name, str) or not campaign_name:
        raise ValueError("campaign: name must be a non-empty string")
    default_size = _check_int(defaults.get("size", 64), "size", "campaign")
    default_spp = _check_int(defaults.get("spp", 1), "spp", "campaign")
    default_seed = _check_int(defaults.get("seed", 0), "seed", "campaign", 0)
    default_gpus = defaults.get("gpus", ["mobile"])
    default_qc = _parse_qc(defaults.get("qc", {}), "campaign")

    rows = data.get("points")
    if not isinstance(rows, list) or not rows:
        raise ValueError("a samplesheet needs a non-empty points list")

    points: list[CampaignPoint] = []
    gpu_cache: dict[str, Any] = {}
    for index, row in enumerate(rows):
        where = f"points[{index}]"
        if not isinstance(row, dict):
            raise ValueError(
                f"{where}: each point must be an object, "
                f"got {type(row).__name__}"
            )
        unknown = sorted(set(row) - _ROW_KEYS)
        if unknown:
            raise ValueError(
                f"{where}: unknown field(s) {', '.join(map(repr, unknown))}; "
                f"known: {', '.join(sorted(_ROW_KEYS))}"
            )
        if "scene" not in row:
            raise ValueError(f"{where}: every point needs a scene")
        if "gpu" in row and "gpus" in row:
            raise ValueError(f"{where}: give either gpu or gpus, not both")
        specs = _parse_scene(row["scene"], where)
        gpu_names = row.get("gpus", [row["gpu"]] if "gpu" in row else default_gpus)
        if not isinstance(gpu_names, list) or not gpu_names or not all(
            isinstance(g, str) for g in gpu_names
        ):
            raise ValueError(
                f"{where}: gpus must be a non-empty list of preset names"
            )
        mode = row.get("mode", "zatel")
        fraction = row.get("fraction")
        size = _check_int(row.get("size", default_size), "size", where)
        spp = _check_int(row.get("spp", default_spp), "spp", where)
        seed = _check_int(row.get("seed", default_seed), "seed", where, 0)
        config = _parse_config(row["config"], where) if "config" in row else None
        gates = _parse_qc(row["qc"], where) if "qc" in row else default_qc
        for gpu_name in gpu_names:
            if gpu_name not in gpu_cache:
                try:
                    gpu_cache[gpu_name] = resolve_gpu(gpu_name)
                except (ValueError, OSError) as exc:
                    raise ValueError(f"{where}: {exc}") from None
            for spec in specs:
                try:
                    points.append(
                        CampaignPoint(
                            spec=spec,
                            gpu=gpu_cache[gpu_name],
                            config=config,
                            mode=mode,
                            fraction=fraction,
                            size=size,
                            spp=spp,
                            seed=seed,
                            gates=gates,
                            row=index,
                        )
                    )
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
    return Campaign(name=campaign_name, points=tuple(points))


def load_samplesheet_document(path: str | Path) -> dict:
    """Read a ``.toml`` or ``.json`` samplesheet file into a raw mapping.

    The unvalidated document form is what ``POST /campaigns`` transports;
    :func:`load_samplesheet` layers the schema validation on top.  TOML
    needs Python 3.11+ (stdlib ``tomllib``); on older interpreters a
    clear error points at the JSON form, which is always available.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:
            raise RuntimeError(
                "TOML samplesheets need Python 3.11+ (stdlib tomllib); "
                "use the equivalent JSON samplesheet instead"
            ) from None
        try:
            data = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise ValueError(f"{path}: invalid TOML: {exc}") from None
    elif suffix == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    else:
        raise ValueError(
            f"unknown samplesheet format {path.suffix!r}; use .toml or .json"
        )
    if not isinstance(data, dict):
        raise ValueError(
            f"{path}: a samplesheet must be a mapping, "
            f"got {type(data).__name__}"
        )
    return data


def load_samplesheet(path: str | Path) -> Campaign:
    """Load and validate a ``.toml`` or ``.json`` samplesheet file."""
    path = Path(path)
    return parse_samplesheet(load_samplesheet_document(path), name=path.stem)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


@dataclass
class CampaignOutcome:
    """One point's result and QC verdict."""

    point: CampaignPoint
    value: Any = None
    error: str | None = None
    verdict: str = "pass"
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class CampaignResult:
    """Everything one campaign execution produced and observed."""

    campaign: Campaign
    outcomes: list[CampaignOutcome]
    counters: StageCounters
    #: Stage nodes of every point's graph vs distinct fingerprints per
    #: wave, summed over waves; all sharing shows up as cache hits in
    #: ``counters``.
    total_nodes: int
    unique_nodes: int
    waves: int
    failures: list[Any] = field(default_factory=list)

    def verdict_counts(self) -> dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICTS}
        for outcome in self.outcomes:
            counts[outcome.verdict] += 1
        return counts

    @property
    def succeeded(self) -> bool:
        """No failed or skipped points (degraded still counts as success)."""
        return all(
            outcome.verdict in ("pass", "degraded") for outcome in self.outcomes
        )

    def executions_of(self, stage_name: str) -> int:
        return self.counters.executions.get(stage_name, 0)


class CampaignPlanner:
    """Executes campaigns as frame-ordered waves of sweep points.

    Points are grouped by sequence frame index (non-sequence points are
    frame 0) and each wave runs as one :class:`~.sweep.SweepPlanner`
    sweep over the shared store — so two GPU configs of the same scene
    profile and quantize once, and work repeated across waves resolves
    as cache hits.  Between waves the planner evaluates QC gates,
    failing or degrading downstream frames of the same row.

    Args:
        store: shared artifact store (defaults to in-memory).
        policy / stage_policy: as on :class:`~.sweep.SweepPlanner`.
        scene_source: ``SceneSpec -> Scene`` resolver; defaults to the
            registry's bounded cache.
        frame_source: ``(scene, point) -> FrameTrace`` tracer; defaults
            to tracing in-process (the harness substitutes its
            disk-cached runner).
    """

    def __init__(
        self,
        store: ArtifactStore | None = None,
        policy: Any | None = None,
        stage_policy: Any | None = None,
        scene_source: Callable[[SceneSpec], Any] | None = None,
        frame_source: Callable[[Any, CampaignPoint], Any] | None = None,
    ) -> None:
        self.store = store if store is not None else ArtifactStore()
        self.policy = policy
        self.stage_policy = stage_policy
        if scene_source is None:
            from ...scene.registry import resolve_scene

            scene_source = resolve_scene
        self.scene_source = scene_source
        self.frame_source = (
            frame_source if frame_source is not None else self._trace_frame
        )

    @staticmethod
    def _trace_frame(scene: Any, point: CampaignPoint) -> Any:
        from ...tracer.tracer import FunctionalTracer, RenderSettings

        settings = RenderSettings(
            width=point.size,
            height=point.size,
            samples_per_pixel=point.spp,
            seed=point.seed,
        )
        return FunctionalTracer(scene, settings).trace_frame()

    # ------------------------------------------------------------------

    def run(self, campaign: Campaign) -> CampaignResult:
        """Execute every point; never raises for per-point failures."""
        waves: dict[int, list[int]] = {}
        for index, point in enumerate(campaign.points):
            waves.setdefault(point.spec.frame, []).append(index)

        outcomes: list[CampaignOutcome | None] = [None] * len(campaign.points)
        counters = StageCounters()
        failures: list[Any] = []
        total_nodes = 0
        unique_nodes = 0
        #: Worst verdict seen so far along each (row, gpu) frame chain.
        chain_verdict: dict[tuple, str] = {}

        for frame_index in sorted(waves):
            runnable: list[int] = []
            for index in waves[frame_index]:
                point = campaign.points[index]
                upstream = (
                    chain_verdict.get(point.chain_key())
                    if point.spec.kind == "frame" and point.spec.frame > 0
                    else None
                )
                if upstream in ("failed", "skipped"):
                    outcomes[index] = CampaignOutcome(
                        point,
                        verdict="skipped",
                        violations=[
                            f"frame {point.spec.frame - 1} of this sequence "
                            "failed; downstream frames skipped"
                        ],
                    )
                    chain_verdict[point.chain_key()] = "skipped"
                    continue
                runnable.append(index)
            if not runnable:
                continue

            scenes: dict[str, Any] = {}
            frames: dict[str, Any] = {}
            sweep_points: list[SweepPoint] = []
            for index in runnable:
                point = campaign.points[index]
                token = point.scene_token()
                if token not in scenes:
                    scene = self.scene_source(point.spec)
                    scenes[token] = scene
                    frames[token] = self.frame_source(scene, point)
                sweep_points.append(point.sweep_point())

            planner = SweepPlanner(
                store=self.store,
                policy=self.policy,
                stage_policy=self.stage_policy,
            )
            sweep_result = planner.run(sweep_points, scenes, frames)
            counters.fold(sweep_result.counters)
            failures.extend(sweep_result.failures)
            total_nodes += sweep_result.total_nodes
            unique_nodes += sweep_result.unique_nodes

            for index, sweep_point in zip(runnable, sweep_points):
                point = campaign.points[index]
                outcome = self._judge(
                    point,
                    sweep_result.outcomes[sweep_point],
                    chain_verdict.get(point.chain_key()),
                )
                if point.spec.kind == "frame":
                    chain_verdict[point.chain_key()] = outcome.verdict
                outcomes[index] = outcome

        return CampaignResult(
            campaign=campaign,
            outcomes=[outcome for outcome in outcomes if outcome is not None],
            counters=counters,
            total_nodes=total_nodes,
            unique_nodes=unique_nodes,
            waves=len(waves),
            failures=failures,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _judge(point, sweep_outcome, upstream_verdict) -> CampaignOutcome:
        """QC verdict for one executed point (plus upstream taint)."""
        if not sweep_outcome.ok:
            return CampaignOutcome(
                point, error=sweep_outcome.error, verdict="failed"
            )
        violations = point.gates.check(sweep_outcome.value)
        if violations:
            verdict = "failed" if point.gates.on_violation == "fail" else "degraded"
        else:
            verdict = "pass"
        if upstream_verdict == "degraded" and verdict == "pass":
            verdict = "degraded"
            violations = [
                f"frame {point.spec.frame - 1} of this sequence was "
                "degraded; verdict inherited"
            ]
        return CampaignOutcome(
            point,
            value=sweep_outcome.value,
            verdict=verdict,
            violations=violations,
        )
