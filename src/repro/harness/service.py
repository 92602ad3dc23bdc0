"""Service-mode runner: execute validated prediction specs.

The HTTP service's workers (and anything else that batches declarative
requests — queue consumers, notebook clients) need one entry point that
takes a :class:`~repro.core.stages.requests.PredictSpec` and returns a
JSON-able result payload, while sharing every cache the interactive
harness already maintains.  :class:`ServiceRunner` is that entry point:

* frame traces and stage artifacts flow through the wrapped
  :class:`~.runner.Runner`'s content-addressed store, so a served
  prediction reuses (and contributes to) exactly the artifacts the CLI
  and sweep planner use;
* execution goes through the stage-plan adapter
  (:func:`~repro.core.stages.requests.build_spec_graph`), so the worker
  drives the same graph ``Zatel.predict`` builds — plus per-request
  stage-execution counters for the payload's observability block;
* result fingerprints (:meth:`ServiceRunner.fingerprint`) incorporate
  :data:`~.runner.CACHE_VERSION`, so served results invalidate together
  with all other cached artifacts after a model-affecting change.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from ..core.executor import ExecutionPolicy
from ..core.pipeline import ZatelResult
from ..core.stages.base import StageContext
from ..core.stages.requests import PredictSpec, build_spec_graph, spec_fingerprint
from ..core.stages.store import StoreStats
from ..gpu.config import preset
from ..scene.spec import scene_label
from .runner import CACHE_VERSION, Runner, Workload, shared_runner

__all__ = ["ServiceRunner", "result_payload"]


def result_payload(scene_name: str, gpu_name: str, result: ZatelResult) -> dict:
    """A :class:`ZatelResult` as a JSON-able payload.

    The schema is shared by ``zatel predict --json`` and the service's
    ``POST /predict`` response — metrics plus the full audit surface
    (degraded flag, plane coverage, per-group failures, serial-fallback
    note), so callers can gate on quality without parsing tables.
    """
    return {
        "scene": scene_name,
        "gpu": gpu_name,
        "scaled_gpu": result.scaled_gpu_name,
        "downscale_factor": result.downscale_factor,
        "mean_fraction": result.mean_fraction(),
        "metrics": {name: result.metrics[name] for name in result.metrics},
        # Sampling-engine provenance ({"name", "params", "seed"}) plus
        # the uncertainty block: per-metric variances and 95% Student-t
        # intervals as {metric: [lo, hi]} — both empty for the default
        # single-replicate point predictions.
        "sampler": dict(result.sampler),
        "variances": dict(result.variances),
        "confidence_intervals": {
            name: [lo, hi]
            for name, (lo, hi) in result.confidence_intervals().items()
        },
        "degraded": result.degraded,
        "coverage": result.coverage,
        "failures": [
            {
                "group": record.index,
                "error": record.error,
                "message": record.message,
                "attempts": record.attempts,
                "pixel_count": record.pixel_count,
            }
            for record in result.failures
        ],
        "serial_fallback": result.serial_fallback,
        "host_seconds": result.host_seconds,
    }


class ServiceRunner:
    """Executes :class:`PredictSpec`\\ s against a shared artifact store."""

    def __init__(
        self,
        runner: Runner | None = None,
        policy: ExecutionPolicy | None = None,
        timeline_interval: int = 0,
        timeline_sink=None,
    ) -> None:
        self.runner = runner if runner is not None else shared_runner()
        #: Execution policy applied to every served prediction (an
        #: operator knob: how the service runs, never what it returns).
        self.policy = policy if policy is not None else ExecutionPolicy()
        #: Telemetry snapshot interval (cycles) served predictions run
        #: with, feeding the dashboard's timeline view; 0 = off.  An
        #: observability knob like ``policy``: enabling telemetry never
        #: changes a prediction's metrics, so it stays out of the
        #: fingerprint and cached results remain byte-identical.
        self.timeline_interval = int(timeline_interval)
        #: ``sink(label, events, total_cycles, deltas)`` called after
        #: every instrumented prediction (from worker threads).
        self.timeline_sink = timeline_sink
        #: Artifact-store traffic of the jobs run in job processes, which
        #: ``runner.store.stats`` in this process never sees.  Kept apart
        #: so that worker threads fold into it under one lock while the
        #: event loop counts result-cache lookups on the store's own.
        self.child_store_stats = StoreStats()
        self._fold_lock = threading.Lock()

    def fingerprint(self, spec: PredictSpec) -> str:
        """The spec's result-cache / single-flight key."""
        return spec_fingerprint(spec, version=CACHE_VERSION)

    def workload(self, spec: PredictSpec) -> Workload:
        return Workload(
            spec.scene,
            width=spec.size,
            height=spec.size,
            samples_per_pixel=spec.spp,
            seed=spec.seed,
        )

    def execute(self, spec: PredictSpec, stats=None, child=None) -> dict:
        """Run one spec end to end; returns the result payload.

        ``stats`` is an optional
        :class:`~repro.service.stats.ServiceStats`: when given, the
        trace and predict stage latencies are recorded into its
        histograms.  ``child`` is an optional job process (see
        :meth:`_in_child`) that runs :meth:`execute_local` instead of
        this process.

        Raises:
            SimulationError: when the pipeline fails beyond rescue
                (quorum violation, unrecoverable corruption).
        """
        if child is not None:
            return self._in_child(child, "predict", spec, stats)
        return self.execute_local(spec, stats)

    def _in_child(self, child, kind: str, spec, stats) -> dict:
        """Run a job in ``child`` and fold its side effects in here.

        ``child(kind, spec)`` runs the job body in another process and
        returns ``(payload, job_stats, store_stats, timelines)``: the
        payload, a :class:`~repro.service.stats.ServiceStats` holding
        only this job's observations, a
        :class:`~repro.core.stages.store.StoreStats` holding only the
        artifact-store traffic the job made there, and the
        ``timeline_sink`` calls the body made there, as argument tuples.
        """
        payload, job_stats, store_stats, timelines = child(kind, spec)
        if stats is not None:
            stats.fold(job_stats)
        with self._fold_lock:
            self.child_store_stats.fold(store_stats)
        if self.timeline_sink is not None:
            for record in timelines:
                self.timeline_sink(*record)
        return payload

    def execute_local(self, spec: PredictSpec, stats=None) -> dict:
        """The body of :meth:`execute`, run in the calling process."""
        runner = self.runner
        workload = self.workload(spec)
        gpu = preset(spec.gpu)
        scene = runner.scene(spec.scene)

        start = time.perf_counter()
        frame = runner.frame(workload)
        trace_seconds = time.perf_counter() - start

        gpu_overrides = (
            {"telemetry_interval": self.timeline_interval, "timeline_trace": True}
            if self.timeline_interval > 0
            else None
        )
        _, graph, terminal = build_spec_graph(
            spec, scene, frame, quorum=self.policy.quorum,
            gpu_overrides=gpu_overrides,
        )
        ctx = StageContext(store=runner.store, policy=self.policy)
        predict_start = time.perf_counter()
        result: ZatelResult = graph.resolve(terminal, ctx).value
        predict_seconds = time.perf_counter() - predict_start
        # The store owns ``result``; this call's execution notes go on a copy.
        result = dataclasses.replace(
            result,
            host_seconds=time.perf_counter() - start,
            serial_fallback=bool(ctx.execution_notes.get("serial_fallback", False)),
        )

        if stats is not None:
            stats.observe("trace_seconds", trace_seconds)
            stats.observe("predict_seconds", predict_seconds)

        if self.timeline_sink is not None and gpu_overrides is not None:
            from ..viz.timeline_model import prediction_deltas, prediction_events

            events, total_cycles = prediction_events(result)
            if events:
                self.timeline_sink(
                    f"{scene_label(spec.scene)} {spec.size}x{spec.size} {spec.gpu}",
                    events,
                    total_cycles,
                    prediction_deltas(result),
                )

        payload = result_payload(scene_label(spec.scene), gpu.name, result)
        payload["stages"] = {
            "executions": dict(ctx.counters.executions),
            "cache_hits": dict(ctx.counters.cache_hits),
        }
        return payload

    def campaign_fingerprint(self, campaign) -> str:
        """A campaign's result-cache / single-flight key."""
        from ..core.stages.fingerprint import stable_hash

        return stable_hash(
            "campaign_result", campaign.fingerprint(), CACHE_VERSION
        )

    def execute_campaign(self, campaign, stats=None, child=None) -> dict:
        """Run one campaign end to end; returns the JSON-able report.

        Uses the wrapped runner's disk-backed store for every frame
        trace and stage artifact, so campaign points share work with
        served single predictions and CLI sweeps.  ``stats`` (a
        :class:`~repro.service.stats.ServiceStats`) picks up the
        per-point counter for ``GET /metrics``.
        ``child`` runs the body in another process, as in
        :meth:`execute`.
        """
        if child is not None:
            return self._in_child(child, "campaign", campaign, stats)
        return self.execute_campaign_local(campaign, stats)

    def execute_campaign_local(self, campaign, stats=None) -> dict:
        """The body of :meth:`execute_campaign`, run in the calling process."""
        from .reporting import campaign_report

        start = time.perf_counter()
        result = self.runner.campaign(campaign, policy=self.policy)
        report = campaign_report(result)
        report["host_seconds"] = time.perf_counter() - start
        if stats is not None:
            stats.campaign_points += len(result.outcomes)
        return report
