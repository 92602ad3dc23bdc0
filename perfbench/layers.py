"""Per-layer metrics of a traced run, computed from its spans.

:data:`PER_LAYER` is the list ``BENCHMARK.json`` declares; every traced
run reports all of them.  A layer a workload does not reach reports a
count of zero.  Every time listed here is reached by all three workloads;
times only one workload has (the full-GPU ground truth, the service's job
and queue times) are printed in the run's ``detail`` line instead.
"""

from __future__ import annotations

from .spans import STAGE_LAYERS, Span, self_times

SIM_COUNTS = (
    "cycles",
    "instructions",
    "work_units",
    "l1d_accesses",
    "l1d_misses",
    "l2_accesses",
    "l2_misses",
    "rt_traversal_steps",
    "dram_requests",
)
SERVICE_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "coalesced",
    "rejected",
    "failed",
    "queue_peak",
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("host.ref_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("scene.build_s", "s", "lower"),
    ("scene.builds", "count", "lower"),
    ("tracer.trace_s", "s", "lower"),
    ("tracer.frames", "count", "lower"),
    ("pipeline.predict_s", "s", "lower"),
    ("pipeline.predicts", "count", "lower"),
    *(
        item
        for layer in STAGE_LAYERS.values()
        for item in (
            (f"stages.{layer}.self_s", "s", "lower"),
            (f"stages.{layer}.runs", "count", "lower"),
            (f"stages.{layer}.hits", "count", "higher"),
        )
    ),
    ("stages.fingerprint_s", "s", "lower"),
    ("store.lookups", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.writes", "count", "lower"),
    ("store.self_s", "s", "lower"),
    ("executor.run_s", "s", "lower"),
    ("executor.overhead_s", "s", "lower"),
    ("executor.retries", "count", "lower"),
    ("executor.failures", "count", "lower"),
    ("frontend.compile_s", "s", "lower"),
    ("frontend.warps", "count", "lower"),
    ("simulator.run_s", "s", "lower"),
    ("simulator.runs", "count", "lower"),
    ("simulator.us_per_work_unit", "us", "lower"),
    ("simulator.kinst_per_s", "kinst/s", "higher"),
    *((f"simulator.{name}", "count", "lower") for name in SIM_COUNTS),
    ("harness.full_sims", "count", "lower"),
    *((f"service.{name}", "count", "lower") for name in SERVICE_COUNTERS),
    ("service.cache_hit_ratio", "ratio", "higher"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def layer_values(spans: list[Span]) -> dict[str, float]:
    """Every span-derived per-layer value (all but host, trace, service)."""
    selves = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def named(name):
        return [spans[i] for i in by_name.get(name, [])]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_sum(name):
        return sum(selves[i] for i in by_name.get(name, []))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    values: dict[str, float] = {
        "scene.build_s": total("scene.build"),
        "scene.builds": sum(1 for s in named("scene.build") if s.attrs.get("built")),
        "tracer.trace_s": total("tracer.trace"),
        "tracer.frames": len(named("tracer.trace")),
        "pipeline.predict_s": total("pipeline.resolve"),
        "pipeline.predicts": len(named("pipeline.resolve")),
        "stages.fingerprint_s": total("stages.fingerprint"),
    }
    for layer in STAGE_LAYERS.values():
        stage = named(f"stages.{layer}")
        hits = sum(1 for s in stage if s.attrs.get("hit"))
        values[f"stages.{layer}.self_s"] = self_sum(f"stages.{layer}")
        values[f"stages.{layer}.runs"] = len(stage) - hits
        values[f"stages.{layer}.hits"] = hits

    gets = named("store.get")
    store_hits = sum(1 for s in gets if s.attrs.get("hit"))
    values.update(
        {
            "store.lookups": len(gets),
            "store.hits": store_hits,
            "store.hit_ratio": store_hits / len(gets) if gets else 0.0,
            "store.writes": len(named("store.put")),
            "store.self_s": self_sum("store.get") + self_sum("store.put"),
        }
    )
    run_s = total("executor.run")
    values.update(
        {
            "executor.run_s": run_s,
            "executor.overhead_s": run_s - total("executor.task"),
            "executor.retries": attr_sum("executor.run", "retries"),
            "executor.failures": attr_sum("executor.run", "failures"),
            "frontend.compile_s": total("frontend.compile"),
            "frontend.warps": attr_sum("frontend.compile", "warps"),
        }
    )
    sim_s = total("simulator.run")
    work = attr_sum("simulator.run", "work_units")
    instructions = attr_sum("simulator.run", "instructions")
    values.update(
        {
            "simulator.run_s": sim_s,
            "simulator.runs": len(named("simulator.run")),
            "simulator.us_per_work_unit": sim_s * 1e6 / work if work else 0.0,
            "simulator.kinst_per_s": instructions / 1000.0 / sim_s if sim_s else 0.0,
        }
    )
    for name in SIM_COUNTS:
        values[f"simulator.{name}"] = attr_sum("simulator.run", name)
    values["harness.full_sims"] = len(named("harness.full_sim"))
    return values


def service_values(counters: dict | None) -> dict[str, float]:
    """The service counters from ``GET /metrics`` (zeros without a service)."""
    counters = counters or {}
    values = {f"service.{name}": counters.get(f"service.{name}", 0) for name in SERVICE_COUNTERS}
    lookups = values["service.cache_hits"] + values["service.cache_misses"]
    values["service.cache_hit_ratio"] = values["service.cache_hits"] / lookups if lookups else 0.0
    return values


def per_layer_metrics(
    spans: list[Span],
    host_ref_s: float,
    overhead_pct: float,
    service_counters: dict | None = None,
) -> dict[str, dict]:
    """The complete ``--trace 1`` metrics block, in :data:`PER_LAYER` order."""
    values = layer_values(spans)
    values.update(service_values(service_counters))
    values["host.ref_s"] = host_ref_s
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
