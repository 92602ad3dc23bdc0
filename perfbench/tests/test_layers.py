"""Per-layer metrics: the declared list and the span arithmetic behind it."""

import json
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.spans import Span

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_declared_per_layer_metrics_match_the_computed_ones():
    declared = json.loads(BENCHMARK.read_text())["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(layers.PER_LAYER)
    block = layers.per_layer_metrics([], host_ref_s=0.1, overhead_pct=3.0)
    assert list(block) == [name for name, _, _ in layers.PER_LAYER]


def test_layer_values_from_spans():
    spans = [
        Span("op.cold", 0.0, 10.0),
        Span("stages.simulate", 1.0, 9.0, parent=0, attrs={"hit": False}),
        Span("executor.run", 2.0, 8.0, parent=1, attrs={"retries": 1, "failures": 0}),
        Span("executor.task", 2.5, 7.5, parent=2),
        Span("simulator.run", 3.0, 7.0, parent=3, attrs={"instructions": 4000, "work_units": 2}),
        Span("stages.simulate", 9.0, 9.5, parent=0, attrs={"hit": True}),
        Span("store.get", 9.1, 9.2, parent=5, attrs={"hit": True}),
        Span("store.get", 1.0, 1.5, parent=1, attrs={"hit": False}),
        Span("store.put", 8.5, 9.0, parent=1),
    ]
    values = layers.layer_values(spans)
    assert values["stages.simulate.runs"] == 1
    assert values["stages.simulate.hits"] == 1
    assert values["stages.simulate.self_s"] == pytest.approx((8.0 - 6.0 - 0.5 - 0.5) + 0.4)
    assert values["executor.overhead_s"] == pytest.approx(1.0)
    assert values["executor.retries"] == 1
    assert values["store.lookups"] == 2 and values["store.hits"] == 1
    assert values["store.hit_ratio"] == pytest.approx(0.5)
    assert values["store.writes"] == 1
    assert values["simulator.kinst_per_s"] == pytest.approx(1.0)
    assert values["simulator.us_per_work_unit"] == pytest.approx(2e6)


def test_service_counters_default_to_zero_without_a_service():
    values = layers.service_values(None)
    assert set(values) == {f"service.{n}" for n in layers.SERVICE_COUNTERS} | {
        "service.cache_hit_ratio"
    }
    assert not any(values.values())
    values = layers.service_values({"service.cache_hits": 9, "service.cache_misses": 1})
    assert values["service.cache_hit_ratio"] == pytest.approx(0.9)
