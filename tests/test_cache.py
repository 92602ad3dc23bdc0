"""Tests for the LRU caches and MSHR table, including LRU properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import Cache, CacheConfig, MSHRTable, line_of
from repro.gpu.cache import CacheStats


class TestLineOf:
    def test_aligns_down(self):
        assert line_of(0, 128) == 0
        assert line_of(127, 128) == 0
        assert line_of(128, 128) == 128
        assert line_of(300, 128) == 256


class TestCacheStats:
    def test_miss_rate_empty_is_zero(self):
        assert CacheStats().miss_rate == 0.0

    def test_merge(self):
        a = CacheStats(accesses=10, misses=4)
        b = CacheStats(accesses=5, misses=1)
        a.merge(b)
        assert a.accesses == 15 and a.misses == 5
        assert a.hits == 10


def tiny_cache(lines=4, assoc=0):
    """A 4-line cache (fully associative by default) for exact LRU checks."""
    return Cache(CacheConfig(lines * 128, 128, assoc, 20))


class TestCacheLRU:
    def test_first_access_misses_second_hits(self):
        cache = tiny_cache()
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.stats.accesses == 2 and cache.stats.misses == 1

    def test_capacity_eviction_is_lru(self):
        cache = tiny_cache(lines=2)
        cache.access(0)
        cache.access(128)
        cache.access(0)        # 0 is now most recent
        cache.access(256)      # evicts 128
        assert cache.probe(0)
        assert not cache.probe(128)
        assert cache.probe(256)

    def test_set_mapping_isolates_sets(self):
        # 4 lines, 2-way => 2 sets; lines 0 and 256 share set 0.
        cache = tiny_cache(lines=4, assoc=2)
        assert cache.num_sets == 2
        cache.access(0)
        cache.access(256)
        cache.access(512)      # set 0 again: evicts line 0
        assert not cache.probe(0)
        assert cache.probe(256) and cache.probe(512)
        # Set 1 never touched.
        cache.access(128)
        assert cache.probe(128)

    def test_flush_keeps_stats(self):
        cache = tiny_cache()
        cache.access(0)
        cache.flush()
        assert not cache.probe(0)
        assert cache.stats.accesses == 1

    def test_resident_never_exceeds_capacity(self):
        cache = tiny_cache(lines=4)
        for i in range(20):
            cache.access(i * 128)
        assert cache.resident_lines() <= 4

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200))
    def test_property_small_working_set_always_fits(self, sequence):
        """Accessing <= capacity distinct lines never re-misses a line."""
        cache = tiny_cache(lines=16)
        seen = set()
        for index in sequence:
            addr = index * 128
            hit = cache.access(addr)
            assert hit == (addr in seen)
            seen.add(addr)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
    def test_property_miss_count_bounds(self, sequence):
        """Misses are at least the distinct-line count's compulsory share
        and never exceed total accesses."""
        cache = tiny_cache(lines=8)
        for index in sequence:
            cache.access(index * 128)
        distinct = len({i * 128 for i in sequence})
        assert cache.stats.misses >= min(distinct, 8) or distinct <= 8
        assert cache.stats.misses >= (distinct if distinct <= 8 else 8)
        assert cache.stats.misses <= cache.stats.accesses


class TestMSHR:
    def test_validation(self):
        with pytest.raises(ValueError):
            MSHRTable(0)

    def test_merge_returns_pending_completion(self):
        mshr = MSHRTable(4)
        mshr.allocate(0, cycle=10, ready_cycle=200)
        assert mshr.lookup(0, cycle=50) == 200
        assert mshr.merges == 1

    def test_retire_after_completion(self):
        mshr = MSHRTable(4)
        mshr.allocate(0, cycle=10, ready_cycle=100)
        assert mshr.lookup(0, cycle=150) is None  # retired
        assert mshr.outstanding() == 0

    def test_full_table_stalls_allocation(self):
        mshr = MSHRTable(2)
        mshr.allocate(0, cycle=0, ready_cycle=100)
        mshr.allocate(128, cycle=0, ready_cycle=120)
        granted = mshr.allocate(256, cycle=10, ready_cycle=300)
        assert granted >= 100  # waited for the earliest entry
        assert mshr.stall_cycles > 0

    def test_stall_is_capped(self):
        mshr = MSHRTable(1)
        mshr.allocate(0, cycle=0, ready_cycle=10_000)
        granted = mshr.allocate(128, cycle=0, ready_cycle=10_000)
        assert granted - 0 <= MSHRTable.MAX_STALL

    def test_no_stall_when_space(self):
        mshr = MSHRTable(8)
        assert mshr.allocate(0, cycle=5, ready_cycle=50) == 5


class ListScanMSHR:
    """Reference MSHR model: retires by scanning every entry on each call.

    The shipped table indexes entries with a heap; this is the plain
    semantics it must reproduce, call for call.
    """

    def __init__(self, num_entries: int) -> None:
        self.num_entries = num_entries
        self.entries: dict[int, int] = {}
        self.merges = 0
        self.stall_cycles = 0

    def _retire_before(self, cycle: int) -> None:
        for line in [l for l, ready in self.entries.items() if ready <= cycle]:
            del self.entries[line]

    def lookup(self, line: int, cycle: int) -> int | None:
        self._retire_before(cycle)
        ready = self.entries.get(line)
        if ready is not None:
            self.merges += 1
        return ready

    def allocate(self, line: int, cycle: int, ready_cycle: int) -> int:
        self._retire_before(cycle)
        alloc_cycle = cycle
        if len(self.entries) >= self.num_entries:
            earliest = min(self.entries.values())
            stall = min(max(0, earliest - cycle), MSHRTable.MAX_STALL)
            self.stall_cycles += stall
            alloc_cycle = cycle + stall
            self._retire_before(alloc_cycle)
            if len(self.entries) >= self.num_entries:
                del self.entries[min(self.entries, key=self.entries.get)]
        self.entries[line] = ready_cycle + (alloc_cycle - cycle)
        return alloc_cycle


#: One MSHR call: (is_allocate, line index, cycle, latency).  Cycles are
#: drawn independently, so consecutive calls go backwards in time too.
mshr_calls = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=800),
        st.integers(min_value=0, max_value=700),
    ),
    max_size=60,
)


class TestMSHRAgainstListScan:
    @staticmethod
    def replay(num_entries, calls):
        table, model = MSHRTable(num_entries), ListScanMSHR(num_entries)
        for is_allocate, index, cycle, latency in calls:
            line = index * 128
            if is_allocate:
                assert table.allocate(line, cycle, cycle + latency) == (
                    model.allocate(line, cycle, cycle + latency)
                )
            else:
                assert table.lookup(line, cycle) == model.lookup(line, cycle)
            # Same live entries in the same order (the victim drop breaks
            # ready-cycle ties by table order).
            assert list(table._entries.items()) == list(model.entries.items())
            assert table.outstanding() == len(model.entries)
            assert table.merges == model.merges
            assert table.stall_cycles == model.stall_cycles
        return model

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=4), mshr_calls)
    def test_property_matches_list_scan_model(self, num_entries, calls):
        self.replay(num_entries, calls)

    def test_full_table_stall_then_victim_drop(self):
        model = self.replay(2, [
            (True, 0, 0, 100),    # ready 100
            (True, 1, 0, 900),    # ready 900: table full
            (True, 2, 50, 400),   # stalls 50 to cycle 100, retires line 0
            (False, 1, 10, 0),    # lookup back in time merges with line 1
            (True, 3, 120, 500),  # full, earliest 500 past the cap: drops 2
            (True, 1, 130, 300),  # full again: drops 3, rewrites 1 in place
            (False, 3, 1000, 0),  # everything has retired
        ])
        assert model.stall_cycles == 50 + 2 * MSHRTable.MAX_STALL
        assert model.merges == 1
        assert not model.entries

    def test_rewrite_to_a_later_ready_cycle_stays_outstanding(self):
        model = self.replay(4, [
            (True, 0, 0, 100),    # ready 100
            (True, 0, 10, 190),   # rewritten in place: ready 200
            (False, 0, 150, 0),   # the ready-100 record is stale: merges
            (False, 0, 200, 0),   # retired
        ])
        assert model.merges == 1
