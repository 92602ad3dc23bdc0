"""Tests for the RT unit's traversal jobs and the SM's resource models."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import MOBILE_SOC, Cache, CacheConfig, CycleSimulator, TraceOp, line_of
from repro.gpu.memory import MemorySubsystem
from repro.gpu.rt_unit import ACTIVE_LANE_BUCKETS, RTUnit, line_memos
from repro.gpu.sm import SM
from repro.gpu.warp import ComputeOp, StoreOp, WarpTask
from repro.scene.scene import AddressMap


@pytest.fixture()
def sm():
    config = MOBILE_SOC
    return SM(0, config, MemorySubsystem(config))


@pytest.fixture()
def amap():
    return AddressMap()


def run_job(sm, op, amap, start=0.0):
    unit = sm.rt_units[0]
    assert unit.try_acquire_slot()
    job = sm.make_trace_job(unit, op, amap)
    cycle = start
    while not job.done:
        cycle = job.advance(cycle)
    unit.release_slot()
    return cycle, unit


class TestIssuePort:
    def test_serializes_back_to_back(self, sm):
        first = sm.reserve_issue(0.0, 10)
        second = sm.reserve_issue(0.0, 10)
        assert first == 0.0
        assert second == 10.0

    def test_idle_gap_respected(self, sm):
        sm.reserve_issue(0.0, 10)
        assert sm.reserve_issue(100.0, 1) == 100.0


class TestMemAccess:
    def test_hit_costs_l1_latency(self, sm):
        sm.mem_access(0, 0.0)  # warm the line
        done = sm.mem_access(0, 1000.0)
        assert done == 1000.0 + sm.config.l1d.latency

    def test_miss_costs_more_than_hit(self, sm):
        miss = sm.mem_access(128, 0.0)
        hit = sm.mem_access(128, miss)
        assert miss - 0.0 > hit - miss

    def test_mshr_merges_concurrent_misses(self, sm):
        # A prefetch puts the line in flight without filling L1, so the
        # demand access misses L1 and merges with the pending fetch.
        pending = MemorySubsystem(sm.config).access(256, 0.0)
        assert sm.prefetch(256, 0.0)
        merged = sm.mem_access(256, 1.0)
        assert sm.mshr.merges == 1
        assert merged == pending  # the prefetch's completion, not a refetch
        assert sm.mshr.outstanding() == 1
        assert sm.memory.l2_stats().accesses == 1

    def test_access_counter(self, sm):
        before = sm.mem_accesses
        sm.mem_access(0, 0.0)
        assert sm.mem_accesses == before + 1


class TestComputeExecution:
    """Compute ops timed by the event loop on a one-SM GPU."""

    config = dataclasses.replace(MOBILE_SOC, num_sms=1)

    def run_ops(self, *ops):
        task = WarpTask(warp_id=0, pixels=(), ops=list(ops))
        return CycleSimulator(self.config, AddressMap()).run([task])

    def test_latency_is_issue_plus_alu(self):
        # The first op pays a cold icache fetch; the next op slot shares
        # its icache line and does not.
        op_cycles = 8 + self.config.alu_latency
        cold = self.run_ops(ComputeOp((8, 8, 8)))
        assert cold.cycles == self.config.icache.latency + op_cycles
        both = self.run_ops(ComputeOp((8, 8, 8)), ComputeOp((8, 8, 8)))
        assert both.cycles == self.config.icache.latency + 2 * op_cycles

    def test_masked_op_is_free(self):
        stats = self.run_ops(ComputeOp((0, 0)))
        assert stats.cycles == 0.0
        assert stats.issued_warp_instructions == 0

    def test_distinct_op_slots_fetch_separately(self):
        # 16-byte slots in 128-byte lines: slot 8 starts a new icache line
        # and pays a second cold fetch.
        slots_per_line = self.config.icache.line_bytes // 16
        ops = [ComputeOp((4,)) for _ in range(slots_per_line + 1)]
        stats = self.run_ops(*ops)
        assert stats.cycles == 2 * self.config.icache.latency + len(ops) * (
            4 + self.config.alu_latency
        )


class TestStoreExecution:
    def test_store_returns_quickly(self, sm):
        op = StoreOp((0x8000_0000, 0x8000_0010))
        done = sm.execute_store(op, 0.0)
        assert done <= 2.0  # fire-and-forget

    def test_store_reaches_l2(self, sm):
        sm.execute_store(StoreOp((0x8000_0000,)), 0.0)
        assert sm.memory.l2_stats().accesses == 1

    def test_empty_store_free(self, sm):
        assert sm.execute_store(StoreOp((None, None)), 3.0) == 3.0


class TestRTUnitSlots:
    def test_slot_pool_bounded(self, sm):
        unit = sm.rt_units[0]
        grabbed = [unit.try_acquire_slot() for _ in range(unit.max_warps + 1)]
        assert grabbed == [True] * unit.max_warps + [False]

    def test_release_restores_capacity(self, sm):
        unit = sm.rt_units[0]
        assert unit.try_acquire_slot()
        unit.release_slot()
        assert unit.free_slots == unit.max_warps

    def test_over_release_rejected(self, sm):
        with pytest.raises(RuntimeError):
            sm.rt_units[0].release_slot()


class TestTraversalJob:
    def test_steps_count_lockstep_maximum(self, sm, amap):
        op = TraceOp(
            per_thread_nodes=([0, 1, 2, 3], [0, 1]),
            per_thread_tris=([], []),
        )
        _, unit = run_job(sm, op, amap)
        assert unit.stats.traversal_steps == 4
        # Active rays: 2, 2, 1, 1 over the four steps.
        assert unit.stats.active_ray_steps == 6

    def test_efficiency_metric(self, sm, amap):
        op = TraceOp(
            per_thread_nodes=([0, 1], [0, 1]),
            per_thread_tris=([], []),
        )
        _, unit = run_job(sm, op, amap)
        assert unit.stats.average_efficiency() == pytest.approx(2.0)

    def test_shared_nodes_fetch_one_line(self, sm, amap):
        # Both rays visit node 0 at step 0: one line fetch, not two.
        op = TraceOp(
            per_thread_nodes=([0], [0]),
            per_thread_tris=([], []),
        )
        _, unit = run_job(sm, op, amap)
        assert unit.stats.node_fetches == 1

    def test_divergent_nodes_fetch_distinct_lines(self, sm, amap):
        # Node indices 0 and 64 land on different 128B lines (64B nodes).
        op = TraceOp(
            per_thread_nodes=([0], [64]),
            per_thread_tris=([], []),
        )
        _, unit = run_job(sm, op, amap)
        assert unit.stats.node_fetches == 2

    def test_triangle_phase_counts_separately(self, sm, amap):
        op = TraceOp(
            per_thread_nodes=([0],),
            per_thread_tris=([3, 4],),
        )
        _, unit = run_job(sm, op, amap)
        assert unit.stats.traversal_steps == 1  # node steps only
        assert unit.stats.tri_fetches >= 1

    def test_zero_work_job_done_immediately(self, sm, amap):
        op = TraceOp(per_thread_nodes=(), per_thread_tris=())
        unit = sm.rt_units[0]
        unit.try_acquire_slot()
        job = sm.make_trace_job(unit, op, amap)
        assert job.done
        unit.release_slot()

    def test_advance_after_done_rejected(self, sm, amap):
        op = TraceOp(per_thread_nodes=([0],), per_thread_tris=([],))
        unit = sm.rt_units[0]
        unit.try_acquire_slot()
        job = sm.make_trace_job(unit, op, amap)
        job.advance(0.0)
        with pytest.raises(RuntimeError):
            job.advance(100.0)
        unit.release_slot()

    def test_cold_misses_slow_the_job(self, sm, amap):
        # A traversal with all-cold far-apart lines takes longer than the
        # same traversal replayed on warm caches.
        nodes = [i * 64 for i in range(10)]  # distinct lines (64B nodes)
        op = TraceOp(per_thread_nodes=(nodes,), per_thread_tris=([],))
        cold_done, _ = run_job(sm, op, amap, start=0.0)
        warm_done, _ = run_job(sm, op, amap, start=cold_done)
        assert (cold_done - 0.0) >= (warm_done - cold_done)


class TestLoadLines:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0, 2, 4]),
        st.lists(st.integers(min_value=0, max_value=24), max_size=120),
    )
    def test_property_l1_matches_cache_access(self, assoc, indices):
        """The inline L1 probe plus fill keeps exactly ``Cache.access``'s
        hits, misses and LRU order, for one set or several."""
        l1d = CacheConfig(8 * 128, 128, assoc, 20)
        config = dataclasses.replace(MOBILE_SOC, l1d=l1d)
        sm = SM(0, config, MemorySubsystem(config))
        reference = Cache(l1d)
        for step, index in enumerate(indices):
            line = index * 128
            hit = reference.access(line)
            ready = sm.mem_access(line, float(step))
            assert (ready == step + l1d.latency) == hit
        assert sm.l1d.stats == reference.stats
        assert sm.l1d._sets == reference._sets
        assert sm.mem_accesses == len(indices)

    def test_batch_returns_slowest_and_counts_once_per_line(self, sm):
        sm.mem_access(0, 0.0)  # warm line 0
        slowest = sm.load_lines({0: None, 128: None}, 1000.0)
        fresh = SM(0, sm.config, MemorySubsystem(sm.config))
        assert slowest == fresh.mem_access(128, 1000.0)
        assert sm.l1d.stats.accesses == 3 and sm.l1d.stats.misses == 2
        assert sm.mem_accesses == 3

    def test_empty_batch(self, sm):
        assert sm.load_lines((), 5.0) == float("-inf")
        assert sm.mem_accesses == 0


class TestStepSchedule:
    """The lazy per-step line schedule a traversal job replays."""

    @staticmethod
    def record_steps(sm, op, amap):
        """Run ``op`` to completion; returns each step's lines as issued."""
        steps = []
        load_lines = sm.load_lines

        def spy(lines, cycle):
            steps.append(list(lines))
            return load_lines(lines, cycle)

        sm.load_lines = spy
        _, unit = run_job(sm, op, amap)
        return steps, unit

    @staticmethod
    def node_line(amap, index):
        return line_of(amap.node_address(index), 128)

    @staticmethod
    def tri_line(amap, index):
        return line_of(amap.triangle_address(index), 128)

    def test_converging_lanes_fetch_once_in_lane_order(self, sm, amap):
        # Nodes 0 and 1 share a 128B line; node 5 sits two lines up.
        op = TraceOp(
            per_thread_nodes=([5], [0], [5], [1], [2]),
            per_thread_tris=([], [], [], [], []),
        )
        issued = []
        access = sm.memory.access
        sm.memory.access = lambda line, cycle: issued.append(line) or access(
            line, cycle
        )
        steps, unit = self.record_steps(sm, op, amap)
        first_touch = [self.node_line(amap, n) for n in (5, 0, 2)]
        assert steps == [first_touch]
        assert issued == first_touch  # cold misses reach memory in order
        assert unit.stats.node_fetches == 3
        assert sm.l1d.stats.accesses == 3

    def test_ragged_and_none_lanes(self, sm, amap):
        op = TraceOp(
            per_thread_nodes=([0, 64, 128], None, [64], []),
            per_thread_tris=(None, None, None, None),
        )
        steps, unit = self.record_steps(sm, op, amap)
        line = lambda n: self.node_line(amap, n)  # noqa: E731
        assert steps == [[line(0), line(64)], [line(64)], [line(128)]]
        assert unit.stats.traversal_steps == 3
        assert unit.stats.active_ray_steps == 2 + 1 + 1
        hist = unit.stats.active_lane_hist
        assert hist[2] == 1 and hist[1] == 2
        assert sum(hist) == 3 and len(hist) == ACTIVE_LANE_BUCKETS

    def test_triangle_phase_follows_node_steps(self, sm, amap):
        op = TraceOp(
            per_thread_nodes=([0], [0]),
            per_thread_tris=([3, 4], [9]),
        )
        steps, unit = self.record_steps(sm, op, amap)
        tri = lambda t: self.tri_line(amap, t)  # noqa: E731
        assert steps == [
            [self.node_line(amap, 0)],
            list(dict.fromkeys([tri(3), tri(9)])),
            [tri(4)],
        ]
        assert unit.stats.traversal_steps == 1
        assert unit.stats.active_ray_steps == 2
        assert unit.stats.tri_fetches == len(steps[1]) + len(steps[2])

    def test_zero_step_job(self, sm, amap):
        op = TraceOp(per_thread_nodes=([], None), per_thread_tris=([], None))
        unit = sm.rt_units[0]
        unit.try_acquire_slot()
        job = sm.make_trace_job(unit, op, amap)
        assert job.done
        assert unit.stats.warps_processed == 1
        with pytest.raises(RuntimeError):
            job.advance(0.0)
        unit.release_slot()

    def test_prefetch_still_issues_per_lane(self, amap):
        config = dataclasses.replace(MOBILE_SOC, rt_prefetch_depth=1)
        sm = SM(0, config, MemorySubsystem(config))
        calls = []
        prefetch = sm.prefetch

        def spy(line, cycle):
            calls.append((line, cycle))
            return prefetch(line, cycle)

        sm.prefetch = spy
        op = TraceOp(
            per_thread_nodes=([0, 64], [0, 64], [0, 128], [0]),
            per_thread_tris=([], [], [], []),
        )
        unit = sm.rt_units[0]
        unit.try_acquire_slot()
        job = sm.make_trace_job(unit, op, amap)
        job.advance(0.0)
        line = lambda n: self.node_line(amap, n)  # noqa: E731
        # Step 0 looks one step ahead: one call per lane that has a node
        # there, duplicates included; the repeat finds the line in flight.
        assert calls == [(line(64), 0.0), (line(64), 0.0), (line(128), 0.0)]
        assert unit.stats.prefetches_issued == 2

    def test_line_memo_holds_touched_indices_only(self, amap):
        nodes, tris = line_memos(amap, 128)
        assert line_memos(AddressMap(), 128)[0] is nodes  # equal layouts share
        assert nodes[3] == self.node_line(amap, 3)
        assert tris[3] == self.tri_line(amap, 3)
        assert 10_000_019 not in nodes
