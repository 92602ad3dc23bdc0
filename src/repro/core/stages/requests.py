"""Prediction requests as data: validation, fingerprints, stage plans.

The service layer (and any other batch front-end) needs a *declarative*
form of "run the Zatel pipeline": a picklable, validated description of
one prediction that can be fingerprinted for result caching and adapted
into the stage graph the pipeline already executes.  :class:`PredictSpec`
is that form:

* **validation** happens at construction (``__post_init__``), so a spec
  that exists is a spec the pipeline can run — HTTP handlers map the
  :class:`ValueError` to a 400 without knowing anything about scenes or
  GPUs;
* **identity** is :func:`spec_fingerprint` — a stable hash over every
  field that changes *what* is computed (plus the caller's cache
  version), shared by the service result cache and the single-flight
  queue so identical requests coalesce;
* **planning** is :func:`build_spec_graph` — the adapter from a spec to
  the :class:`~.base.StageGraph` + terminal node that
  :meth:`~repro.core.pipeline.Zatel.build_graph` produces, so a service
  worker drives exactly the code path the CLI does.

Execution-policy knobs (workers, timeouts, retries) are deliberately
not part of a spec: they change how a prediction runs, never what it
returns, exactly like :class:`~repro.core.executor.ExecutionPolicy` vs
:class:`~repro.core.pipeline.ZatelConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ...scene.spec import SceneSpec
from .fingerprint import stable_hash

__all__ = [
    "MAX_PLANE_SIZE",
    "MAX_REPLICATES",
    "MAX_SPP",
    "PredictSpec",
    "spec_fingerprint",
    "spec_zatel_config",
    "build_spec_graph",
]

#: Upper bound on the requested image-plane side length.  A service must
#: bound the work one request can demand; 512 is the paper's full
#: evaluation plane and already minutes of CPU on the Python simulator.
MAX_PLANE_SIZE = 512

#: Upper bound on samples per pixel for a single request.
MAX_SPP = 16

_DIVISIONS = ("fine", "coarse")
_DISTRIBUTIONS = ("uniform", "lintmp", "exptmp")
_GPU_PRESETS = ("mobile", "rtx2060")

#: Bound on the replicate count a single request may demand: each
#: replicate is a separate simulation pass over its subset, so this is a
#: direct work multiplier like ``spp``.
MAX_REPLICATES = 16


@dataclass(frozen=True)
class PredictSpec:
    """One validated, picklable prediction request.

    Field semantics mirror the ``predict`` CLI command; see
    :class:`~repro.core.pipeline.ZatelConfig` for the methodology knobs.
    """

    #: Scene identity: a library name string (legacy form) or a full
    #: :class:`~repro.scene.spec.SceneSpec` (recipes, sequence frames).
    scene: str | SceneSpec
    size: int = 64
    spp: int = 1
    seed: int = 0
    gpu: str = "mobile"
    division: str = "fine"
    distribution: str = "uniform"
    fraction: float | None = None
    adaptive: bool = False
    sampler: str = "heatmap"
    replicates: int = 5

    def __post_init__(self) -> None:
        if not isinstance(self.scene, SceneSpec):
            # Legacy string form: must name a library scene.  SceneSpec
            # values validated themselves (recipe, knob ranges, frame
            # index) at their own construction.
            from ...scene.library import EXTRA_SCENES, SCENE_NAMES

            known = SCENE_NAMES + EXTRA_SCENES
            if self.scene not in known:
                raise ValueError(
                    f"unknown scene {self.scene!r}; available: "
                    f"{', '.join(known)}"
                )
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise ValueError(f"size must be an integer, got {self.size!r}")
        if not 1 <= self.size <= MAX_PLANE_SIZE:
            raise ValueError(
                f"size must be in [1, {MAX_PLANE_SIZE}], got {self.size}"
            )
        if not isinstance(self.spp, int) or isinstance(self.spp, bool):
            raise ValueError(f"spp must be an integer, got {self.spp!r}")
        if not 1 <= self.spp <= MAX_SPP:
            raise ValueError(f"spp must be in [1, {MAX_SPP}], got {self.spp}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.gpu not in _GPU_PRESETS:
            raise ValueError(
                f"unknown GPU preset {self.gpu!r}; available: "
                f"{', '.join(_GPU_PRESETS)}"
            )
        if self.division not in _DIVISIONS:
            raise ValueError(
                f"unknown division {self.division!r}; available: "
                f"{', '.join(_DIVISIONS)}"
            )
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; available: "
                f"{', '.join(_DISTRIBUTIONS)}"
            )
        if self.fraction is not None:
            if not isinstance(self.fraction, (int, float)) or isinstance(
                self.fraction, bool
            ):
                raise ValueError(
                    f"fraction must be a number in (0, 1], got {self.fraction!r}"
                )
            if not 0.0 < float(self.fraction) <= 1.0:
                raise ValueError(
                    f"fraction must be in (0, 1], got {self.fraction}"
                )
        if not isinstance(self.adaptive, bool):
            raise ValueError(f"adaptive must be a boolean, got {self.adaptive!r}")
        from ..samplers import SAMPLER_NAMES

        if self.sampler not in SAMPLER_NAMES:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; available: "
                f"{', '.join(SAMPLER_NAMES)}"
            )
        if not isinstance(self.replicates, int) or isinstance(
            self.replicates, bool
        ):
            raise ValueError(
                f"replicates must be an integer, got {self.replicates!r}"
            )
        if not 2 <= self.replicates <= MAX_REPLICATES:
            raise ValueError(
                f"replicates must be in [2, {MAX_REPLICATES}], "
                f"got {self.replicates}"
            )


def spec_fingerprint(spec: PredictSpec, version: Any = 0) -> str:
    """Content address of a spec's *result* under cache ``version``.

    ``version`` should be the caller's model/cache version (the harness
    passes ``CACHE_VERSION``) so served results invalidate together with
    every other cached artifact after a model-affecting change.
    """
    return stable_hash(
        "predict_spec",
        version,
        spec.scene,
        spec.size,
        spec.spp,
        spec.seed,
        spec.gpu,
        spec.division,
        spec.distribution,
        spec.fraction,
        spec.adaptive,
        spec.sampler,
        spec.replicates,
    )


def spec_zatel_config(spec: PredictSpec):
    """The :class:`~repro.core.pipeline.ZatelConfig` a spec describes."""
    from ..pipeline import ZatelConfig

    return ZatelConfig(
        division=spec.division,
        distribution=spec.distribution,
        fraction_override=spec.fraction,
        seed=spec.seed,
        sampler=spec.sampler,
        replicates=spec.replicates,
    )


def build_spec_graph(
    spec: PredictSpec,
    scene,
    frame,
    quorum: int | None = None,
    gpu_overrides: dict[str, Any] | None = None,
):
    """Adapt a spec into the pipeline's stage plan.

    Returns ``(predictor, graph, terminal)`` where resolving ``terminal``
    through a :class:`~.base.StageContext` yields the
    :class:`~repro.core.pipeline.ZatelResult` — the same graph
    :meth:`Zatel.predict` builds internally, exposed so a service worker
    can thread its own store, policy and counters through execution.

    ``gpu_overrides`` replaces fields on the spec's GPU preset before
    planning.  Like ``quorum`` it is an *operator* knob, not part of the
    spec's fingerprint, so it must only carry observability fields
    (``telemetry_interval``, ``timeline_trace``) that are guaranteed not
    to change any metric — the service uses it to instrument served
    predictions for the dashboard without perturbing cached results.
    """
    from dataclasses import replace

    from ...gpu.config import preset
    from ..adaptive import AdaptiveZatel
    from ..pipeline import Zatel

    gpu = preset(spec.gpu)
    if gpu_overrides:
        gpu = replace(gpu, **gpu_overrides)
    predictor_class = AdaptiveZatel if spec.adaptive else Zatel
    predictor = predictor_class(gpu, spec_zatel_config(spec))
    graph, terminal = predictor.build_graph(scene, frame, quorum=quorum)
    return predictor, graph, terminal
