"""The ``predict`` and ``validate`` workloads: in-process, serial, no forks.

Both trace their 128x128 frames in set-up and then run whole rounds, each
a seeded permutation of every (scene, GPU) pair:

* ``predict`` op: one cold ``Zatel(gpu).predict`` into a fresh on-disk
  store, then warm re-predicts through new store objects on that same
  directory, so every warm repeat reads the cold op's artifacts back.
* ``validate`` op: one cold predict plus a full-GPU ground-truth run
  through ``Runner.full_sim`` (``zatel predict --compare``), scored with
  ``harness.metrics.result_errors`` and ``mae``; warm re-predicts follow
  as in ``predict``.
"""

from __future__ import annotations

import gc
import math
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import common
from .common import metric


@dataclass(frozen=True)
class Shape:
    """What distinguishes the two in-process workloads."""

    scenes: tuple[str, ...]
    #: Nominal seconds of one round on a 2-core host; rounds per run are
    #: ``round(seconds / round_s)``, at least one.
    round_s: float
    ground_truth: bool


PREDICT = Shape(common.PREDICT_SCENES, round_s=15.0, ground_truth=False)
VALIDATE = Shape(common.VALIDATE_SCENES, round_s=25.0, ground_truth=True)


@dataclass
class Tally:
    """Everything one pass over the plan measured."""

    cold_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    #: Warm re-predict seconds per pair key.
    warm_s: dict = field(default_factory=dict)
    full_sim_s: list[float] = field(default_factory=list)
    full_instructions: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: First result per pair: (metrics, mae, cycles error).
    first: dict = field(default_factory=dict)


class InProcess:
    """One run of ``predict`` or ``validate``."""

    def __init__(self, shape: Shape, seed: int, seconds: float, run_dir, recorder=None):
        self.shape = shape
        self.run_dir = run_dir
        self.recorder = recorder
        rounds = max(1, round(seconds / shape.round_s))
        pairs = [(scene, gpu) for scene in shape.scenes for gpu in common.GPUS]
        self.ops = [
            (index, scene, gpu)
            for index, order in enumerate(common.round_plan(pairs, rounds, seed))
            for scene, gpu in order
        ]
        self.warm_repeats = math.ceil(common.MIN_TAIL_SAMPLES / len(self.ops))
        self.reference = common.load_reference()
        self.frames: dict = {}
        self.scenes: dict = {}
        self._op_counter = 0

    # -- set-up ---------------------------------------------------------

    def setup_once(self) -> float:
        """Build every scene and trace every frame; returns seconds taken."""
        from repro.harness.runner import Workload
        from repro.scene.registry import clear_scene_cache, resolve_scene
        from repro.tracer.tracer import FunctionalTracer

        start = time.perf_counter()
        clear_scene_cache()
        for scene_name in self.shape.scenes:
            workload = Workload(scene_name, common.FRAME_SIZE, common.FRAME_SIZE)
            scene = resolve_scene(scene_name)
            self.scenes[scene_name] = scene
            self.frames[scene_name] = FunctionalTracer(scene, workload.settings()).trace_frame()
        return time.perf_counter() - start

    # -- ops ------------------------------------------------------------

    def _span(self, name: str):
        return nullcontext() if self.recorder is None else self.recorder.span(name)

    def _op(self, op_id: str):
        return nullcontext() if self.recorder is None else self.recorder.op(op_id)

    def run_pass(self, warm: bool = True) -> Tally:
        """Run the whole plan once and check every result.

        ``warm=False`` skips the warm re-predicts: the traced run's
        untraced comparison pass needs only the ops.
        """
        tally = Tally()
        self.run_ops(self.ops, tally, warm)
        return tally

    def run_interleaved(self) -> tuple[Tally, list[float]]:
        """Alternate the set-up repetitions with equal parts of the plan.

        Host speed drifts on the scale of a run, so spreading the ops over
        the whole run averages more of that drift than one block would.
        Returns the tally and the seconds of every set-up repetition.
        """
        tally = Tally()
        reps = []
        parts = common.SETUP_REPS
        for part in range(parts):
            reps.append(self.setup_once())
            lo = len(self.ops) * part // parts
            hi = len(self.ops) * (part + 1) // parts
            self.run_ops(self.ops[lo:hi], tally, warm=True)
        return tally, reps

    def run_ops(self, ops: list, tally: Tally, warm: bool) -> None:
        for round_index, scene_name, gpu_name in ops:
            tally.attempted += 1
            try:
                self._one_op(tally, scene_name, gpu_name, with_warm=warm)
            except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
                tally.failures.append(
                    f"{scene_name}/{gpu_name} round {round_index}: "
                    f"{type(error).__name__}: {error}"
                )

    def _one_op(self, tally: Tally, scene_name: str, gpu_name: str, with_warm: bool) -> None:
        from repro.core.executor import ExecutionPolicy
        from repro.core.pipeline import Zatel
        from repro.core.stages.store import ArtifactStore
        from repro.gpu.config import preset
        from repro.harness.metrics import mae, result_errors
        from repro.harness.runner import Runner, Workload

        gpu = preset(gpu_name)
        scene = self.scenes[scene_name]
        frame = self.frames[scene_name]
        policy = ExecutionPolicy(workers=1)
        self._op_counter += 1
        op_id = f"op{self._op_counter}"
        store_dir = self.run_dir / op_id
        key = common.pair_key(scene_name, gpu_name, common.FRAME_SIZE)
        reference = self.reference[key]

        # A full collection costs ~0.2 s with the frames loaded; starting
        # every op from a collected heap keeps it from landing in whichever
        # op the seeded order happens to put after the most allocation.
        gc.collect()
        with self._op(op_id), self._span("op.cold"):
            start = time.perf_counter()
            result = Zatel(gpu).predict(
                scene, frame, policy=policy, store=ArtifactStore(store_dir / "store")
            )
            cold = time.perf_counter() - start
            full = None
            if self.shape.ground_truth:
                workload = Workload(scene_name, common.FRAME_SIZE, common.FRAME_SIZE)
                with self._span("harness.full_sim"):
                    sim_start = time.perf_counter()
                    runner = Runner(cache_dir=store_dir / "harness")
                    runner.store.put(Runner.frame_key(workload), frame, persist=False)
                    full = runner.full_sim(workload, gpu)
                    full_s = time.perf_counter() - sim_start
            op = time.perf_counter() - start

        _check_result(result)
        if full is not None:
            truth = full.metrics()
            if not common.finite_metrics(truth):
                raise AssertionError("full simulation has a non-finite metric")
            if truth != reference:
                raise AssertionError(
                    f"full simulation of {key} differs from perfbench/data/reference.json"
                )
            tally.full_sim_s.append(full_s)
            tally.full_instructions += full.instructions
        errors = result_errors(result, reference, require_full_coverage=True)
        scored = (dict(result.metrics), mae(errors), errors["cycles"])
        previous = tally.first.setdefault(key, scored)
        if previous != scored:
            raise AssertionError(f"repeated predict of {key} changed its metrics")
        tally.cold_s.append(cold)
        tally.op_s.append(op)

        for repeat in range(self.warm_repeats if with_warm else 0):
            with self._op(f"{op_id}.w{repeat}"), self._span("op.warm"):
                start = time.perf_counter()
                warm = Zatel(gpu).predict(
                    scene, frame, policy=policy, store=ArtifactStore(store_dir / "store")
                )
                elapsed = time.perf_counter() - start
            if warm.metrics != result.metrics or warm.degraded:
                raise AssertionError(f"warm predict of {key} differs from the cold one")
            tally.warm_s.setdefault(key, []).append(elapsed)
        shutil.rmtree(store_dir, ignore_errors=True)

    def golden_check(self) -> str | None:
        """One in-process SPRNG 24x24 MobileSoC predict against the golden file."""
        from repro.core.pipeline import Zatel
        from repro.gpu.config import MOBILE_SOC
        from repro.harness.runner import Workload
        from repro.scene.registry import resolve_scene
        from repro.tracer.tracer import FunctionalTracer

        workload = Workload("SPRNG", common.GOLDEN_SIZE, common.GOLDEN_SIZE)
        frame = FunctionalTracer(resolve_scene("SPRNG"), workload.settings()).trace_frame()
        result = Zatel(MOBILE_SOC).predict(resolve_scene("SPRNG"), frame)
        if result.metrics != common.load_golden()["SPRNG"]:
            return "SPRNG 24x24 predict differs from tests/data/golden_predict.json"
        return None


def _check_result(result) -> None:
    if result.degraded or result.failures:
        raise AssertionError("degraded prediction")
    if not common.finite_metrics(result.metrics):
        raise AssertionError("prediction has a non-finite metric")


def ops_per_s(tally: Tally) -> float:
    return len(tally.op_s) / sum(tally.op_s) if tally.op_s else 0.0


def end_to_end(tally: Tally, setup_s: float, peak_rss: float) -> dict:
    """The ``--trace 0`` metrics of an in-process workload."""
    firsts = list(tally.first.values())
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
        "ops_per_s": metric(ops_per_s(tally), "1/s"),
        "warm_p50_ms": metric(common.mean_of_medians(tally.warm_s) * 1e3, "ms"),
        "mae_pct": metric(statistics.fmean(f[1] for f in firsts), "%"),
        "cycles_err_pct": metric(statistics.fmean(f[2] for f in firsts), "%"),
    }


def detail(tally: Tally) -> dict:
    """Workload-specific numbers printed beside the metrics."""
    warm = [v for values in tally.warm_s.values() for v in values]
    out = {
        "ops": len(tally.op_s),
        "op_p50_s": statistics.median(tally.op_s) if tally.op_s else None,
        "cold_predict_p50_s": statistics.median(tally.cold_s) if tally.cold_s else None,
        "warm_tail_ms": common.tail_summary(warm, 1e3) if warm else None,
    }
    if tally.full_sim_s:
        total = sum(tally.full_sim_s)
        out["harness.full_sim_s"] = total
        out["sim_kinst_per_s"] = tally.full_instructions / 1000.0 / total
        out["full_sim_share_of_ops"] = total / sum(tally.op_s)
    return out
