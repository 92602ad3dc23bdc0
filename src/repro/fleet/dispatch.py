"""Dispatch glue between the stage graph and the fleet coordinator.

The boundary has two halves sharing one naming scheme:

* **coordinator side** — :func:`scatter_groups` packs everything a
  group simulation needs into one content-addressed *bundle* artifact,
  scatters the per-group leases through a
  :class:`~repro.fleet.coordinator.FleetCoordinator`, then gathers the
  validated result artifacts back into the exact ``(predictions,
  failures)`` shape :class:`~repro.core.stages.concrete.
  SimulateGroupStage` produces locally — so the combine stage (and its
  degraded-quorum semantics) never knows which path ran;
* **worker side** — :func:`execute_lease` loads the bundle from the
  shared store, rebuilds the scene and simulator, runs the predictor's
  own ``_predict_group`` (bit-identical to the local path: same
  ``(seed, index)``-derived group seed, same selection), and stores the
  prediction under a deterministic per-group key.

Result keys are pure functions of ``(bundle_key, index)``, which makes
re-dispatch idempotent: a straggler from a revoked lease and its
replacement write the *same* artifact with the same content.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.pipeline import GroupPrediction
from ..core.stages.fingerprint import (
    frame_fingerprint,
    gpu_fingerprint,
    stable_hash,
)
from ..core.stages.store import ArtifactStore
from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coordinator import FleetCoordinator

__all__ = [
    "bundle_key_for",
    "execute_lease",
    "make_result_validator",
    "pack_bundle",
    "result_key_for",
    "scatter_groups",
]


def bundle_key_for(predictor, frame, quantized, groups, scaled_gpu, fractions, scene) -> str:  # noqa: ARG001
    """Content address of a scatter bundle.

    Derived from the same ingredients as the simulate stage's
    fingerprint: the predictor's full methodology config plus the
    fingerprints of every input.  ``quantized`` and ``groups`` are
    deterministic functions of ``(frame, config)``, so the frame
    fingerprint and config cover them without hashing array content.
    Two predictions that would share simulation work share one bundle.
    """
    return stable_hash(
        (
            "fleet_bundle",
            # Bundle layout version.  v2: the scene travels as a
            # SceneSpec (recipe knobs/seed/frame included), so two
            # recipes sharing a display name never share a bundle.
            2,
            predictor._simulate_params(),
            predictor.config,
            frame_fingerprint(frame),
            gpu_fingerprint(scaled_gpu),
            len(groups),
            list(fractions),
            _scene_identity(scene),
        )
    )


def _scene_identity(scene):
    """The scene's spec when the registry built it, else its name.

    The spec is what lets a worker rebuild procedural scenes it has
    never seen: it is self-contained (recipe + knobs + seed + frame),
    whereas a bare name only resolves against the fixed library.
    """
    return getattr(scene, "spec", None) or scene.name


def result_key_for(bundle_key: str, index: int) -> str:
    """Deterministic store key for group ``index`` of a bundle."""
    return stable_hash(("fleet_result", bundle_key, index))


def pack_bundle(
    store: ArtifactStore, predictor, frame, quantized, groups, scaled_gpu,
    fractions, scene,
) -> str:
    """Persist one scatter bundle; returns its key (idempotent)."""
    key = bundle_key_for(
        predictor, frame, quantized, groups, scaled_gpu, fractions, scene
    )
    if not store.contains(key):
        store.put(
            key,
            {
                "predictor": predictor,
                "frame": frame,
                "quantized": quantized,
                "groups": groups,
                "scaled_gpu": scaled_gpu,
                "fractions": fractions,
                "scene": _scene_identity(scene),
            },
        )
    return key


def execute_lease(store: ArtifactStore, bundle_key: str, index: int) -> str:
    """Worker side: compute one leased group, store its prediction.

    Pure function of the bundle content — retries and straggler
    dispatches reproduce bit-identical artifacts, so overwriting under
    the deterministic key is always safe.
    """
    from ..scene.registry import resolve_scene
    from ..gpu.simulator import CycleSimulator

    bundle = store.get(bundle_key)
    if bundle is None:
        raise SimulationError(
            f"fleet bundle {bundle_key} is not in the shared store (are the "
            "coordinator and worker pointed at the same cache directory?)"
        )
    groups = bundle["groups"]
    if not 0 <= index < len(groups):
        raise SimulationError(
            f"lease index {index} out of range for a {len(groups)}-group bundle"
        )
    # A SceneSpec rebuilds recipes and sequence frames from scratch; a
    # bare string is the legacy library-name form.
    scene = resolve_scene(bundle["scene"])
    simulator = CycleSimulator(bundle["scaled_gpu"], scene.addresses)
    prediction = bundle["predictor"]._predict_group(
        index,
        groups[index],
        bundle["frame"],
        bundle["quantized"],
        simulator,
        scene,
        fraction=bundle["fractions"][index],
    )
    result_key = result_key_for(bundle_key, index)
    store.put(result_key, prediction)
    return result_key


def make_result_validator(store: ArtifactStore):
    """Coordinator-side defense against silent result corruption.

    Returns the ``result_validator`` callback the coordinator runs
    before completing a lease: the reported artifact must exist, be a
    :class:`~repro.core.pipeline.GroupPrediction`, and carry the leased
    group's index.  A rejected artifact is purged from the store (memo
    *and* disk) so the re-dispatched computation starts clean.
    """

    def validate(lease) -> str | None:
        expected = result_key_for(lease.bundle_key, lease.index)
        if lease.result_key != expected:
            return (
                f"worker reported key {lease.result_key!r}, expected "
                f"{expected!r}"
            )
        value = store.get(lease.result_key)
        problem: str | None = None
        if value is None:
            problem = "reported result artifact is missing from the store"
        elif not isinstance(value, GroupPrediction):
            problem = (
                "result artifact is not a GroupPrediction "
                f"(got {type(value).__name__})"
            )
        elif value.index != lease.index:
            problem = (
                f"result artifact is for group {value.index}, "
                f"lease was for group {lease.index}"
            )
        if problem is not None:
            store.forget(lease.result_key)
        return problem

    return validate


def scatter_groups(
    fleet: "FleetCoordinator",
    store: ArtifactStore,
    predictor,
    frame,
    quantized,
    groups,
    scaled_gpu,
    fractions,
    scene,
    gather_timeout: float | None = None,
):
    """Scatter one prediction's groups across the fleet; gather results.

    Returns ``(predictions, failures, redispatches)`` where the first
    two match :meth:`SimulateGroupStage.run`'s local return shape
    exactly (predictions sorted by group index, failures as
    :class:`~repro.errors.FailureRecord`).
    """
    if store.root is None:
        raise SimulationError(
            "fleet execution requires a disk-backed artifact store: workers "
            "exchange bundles and results through it (start the service "
            "with a cache directory)"
        )
    bundle_key = pack_bundle(
        store, predictor, frame, quantized, groups, scaled_gpu, fractions, scene
    )
    report = fleet.scatter(bundle_key, len(groups), timeout=gather_timeout)
    predictions = []
    failures = list(report.failures)
    failed_indices = {record.index for record in failures}
    for index in sorted(report.results):
        value = store.get(report.results[index])
        if isinstance(value, GroupPrediction) and value.index == index:
            predictions.append(value)
        elif index not in failed_indices:
            # Validated at completion time but unreadable now (e.g. the
            # artifact file vanished): audit it as a lost group rather
            # than crashing the combine.
            failures.append(
                predictor_failure(index, report.dispatches.get(index, 1))
            )
    failures.sort(key=lambda record: record.index)
    return predictions, failures, report.redispatches


def predictor_failure(index: int, attempts: int):
    from ..errors import CacheCorruptionError, FailureRecord

    return FailureRecord(
        index=index,
        error=CacheCorruptionError.__name__,
        message="fleet result artifact disappeared between validation and gather",
        attempts=attempts,
    )
