"""Interval-snapshot reconciliation over the full scene library.

On every library scene, for frames from ``FunctionalTracer`` and from the
scalar reference tracer (``tests/reference_tracer.py``), the telemetry
bus's interval snapshots must reconcile exactly
with the run's end-of-run :class:`SimulationStats` — integer counters via
the sum of per-interval deltas (which telescopes exactly), float
accumulators via the final cumulative snapshot (float delta sums do not
telescope bit-exactly, cumulative values do).
"""

import dataclasses

import pytest

from repro.gpu import MOBILE_SOC, CycleSimulator, compile_kernel
from repro.scene.library import SCENE_NAMES, make_scene
from repro.tracer.tracer import FunctionalTracer, RenderSettings
from tests.reference_tracer import ReferenceTracer

SIZE = 12
INTERVAL = 500


def _component_sum(counters, prefix, suffix):
    return sum(
        value
        for name, value in counters.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


@pytest.mark.parametrize(
    "tracer", (ReferenceTracer, FunctionalTracer), ids=("scalar", "packet")
)
@pytest.mark.parametrize("scene_name", SCENE_NAMES)
def test_snapshots_reconcile_with_final_stats(scene_name, tracer):
    scene = make_scene(scene_name)
    frame = tracer(
        scene,
        RenderSettings(width=SIZE, height=SIZE, samples_per_pixel=1, seed=0),
    ).trace_frame()
    gpu = dataclasses.replace(
        MOBILE_SOC, telemetry_interval=INTERVAL, timeline_trace=True
    )
    warps = compile_kernel(frame, list(frame.pixels), scene.addresses)
    stats = CycleSimulator(gpu, scene.addresses).run(warps)
    record = stats.telemetry
    assert record is not None

    # The trailing snapshot closes the run at the final cycle count.
    assert record.snapshots[-1].end == stats.cycles

    # Integer counters: the per-interval deltas telescope exactly back to
    # the simulator's aggregated totals.
    deltas = record.deltas()

    def delta_sum(prefix, suffix):
        return sum(_component_sum(row, prefix, suffix) for row in deltas)

    assert delta_sum("core.instructions", "") == stats.instructions
    assert (
        delta_sum("core.issued_warp_instructions", "")
        == stats.issued_warp_instructions
    )
    assert delta_sum("sm", ".l1d.accesses") == stats.l1d_accesses
    assert delta_sum("sm", ".l1d.misses") == stats.l1d_misses
    assert delta_sum("l2.", ".accesses") == stats.l2_accesses
    assert delta_sum("l2.", ".misses") == stats.l2_misses
    assert delta_sum("sm", ".traversal_steps") == stats.rt_traversal_steps
    assert delta_sum("sm", ".active_ray_steps") == stats.rt_active_ray_steps
    assert delta_sum("dram.", ".requests") == stats.dram_requests

    # Float accumulators: final cumulative snapshot equals the stats
    # bit for bit (same Python floats, captured after finalization).
    final = record.final_counters()
    assert (
        _component_sum(final, "dram.", ".data_cycles")
        == stats.dram_data_cycles
    )
    assert (
        _component_sum(final, "dram.", ".pending_cycles")
        == stats.dram_pending_cycles
    )
    assert (
        _component_sum(final, "core.", "warp_resident_cycles")
        == stats.warp_resident_cycles
    )

    # Snapshot boundaries fall on the configured grid.
    for snapshot in record.snapshots[:-1]:
        assert snapshot.end % INTERVAL == 0
    assert all(
        snapshot.start < snapshot.end or snapshot.index == 0
        for snapshot in record.snapshots
    )

    # Timeline windows are well-formed (they may outlive the last warp:
    # the RT fetch pipeline lets warps retire before their final memory
    # traffic drains through L2 and DRAM).
    for event in record.events:
        assert 0.0 <= event.start < event.end
