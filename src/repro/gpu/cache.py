"""Set-associative and fully-associative LRU caches, plus an MSHR table.

These are *timing* caches: they track tag state and hit/miss statistics but
carry no data.  Addresses are pre-aligned to line granularity by the caller
(:func:`line_of`).
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush

from .config import CacheConfig
from .telemetry import Counter, RatioGauge, StatGroup

__all__ = ["CacheStats", "Cache", "MSHRTable", "line_of"]


def line_of(addr: int, line_bytes: int) -> int:
    """Line-aligned address for ``addr``."""
    return addr - (addr % line_bytes)


class CacheStats(StatGroup):
    """Hit/miss counters for one cache instance."""

    accesses = Counter("tag lookups (hit or miss)")
    misses = Counter("lookups that filled a new line")
    miss_rate = RatioGauge(
        "misses", "accesses", "miss rate in [0, 1]; 0 for an untouched cache"
    )

    @property
    def hits(self) -> int:
        return self.accesses - self.misses


class Cache:
    """An LRU cache of tags.

    Sets are ``OrderedDict`` instances used as LRU lists (most-recent at the
    end).  ``associativity = 0`` in the config means fully associative
    (a single set spanning every line), which is how the paper's L1D is
    specified.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = (
            config.num_lines if config.associativity == 0 else config.associativity
        )
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        #: The only set of a single-set (fully-associative) cache, which
        #: hot loops hoist out of their per-line set lookup; else None.
        self.single_set = self._sets[0] if self.num_sets == 1 else None
        self.stats = CacheStats()

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.config.line_bytes) % self.num_sets

    def set_of(self, line_addr: int) -> OrderedDict[int, None]:
        """The LRU set ``line_addr`` maps to (most-recent at the end).

        Hot loops probe it directly: a hit is ``line in lru`` followed by
        ``lru.move_to_end(line)``, a miss goes through :meth:`fill`.
        """
        return self._sets[self._set_index(line_addr)]

    def access(self, line_addr: int) -> bool:
        """Look up a line, filling it on miss.  Returns True on hit."""
        lru = self._sets[self._set_index(line_addr)]
        self.stats.accesses += 1
        if line_addr in lru:
            lru.move_to_end(line_addr)
            return True
        self.fill(lru, line_addr)
        return False

    def fill(self, lru: OrderedDict[int, None], line_addr: int) -> None:
        """Count a miss and insert ``line_addr`` into its set ``lru``.

        The caller has already counted the lookup and seen the miss; the
        set's least-recently-used line is evicted if it overflows.
        """
        self.stats.misses += 1
        lru[line_addr] = None
        if len(lru) > self.ways:
            lru.popitem(last=False)  # evict LRU

    def probe(self, line_addr: int) -> bool:
        """Check residency without updating LRU order or statistics."""
        return line_addr in self._sets[self._set_index(line_addr)]

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        """Invalidate all lines (statistics are kept)."""
        for s in self._sets:
            s.clear()


class MSHRTable:
    """Miss-status holding registers: merge and bound outstanding misses.

    Behavioural model for an event-driven simulator: each outstanding miss
    is an entry ``line -> ready_cycle``.  A request to a line already
    outstanding *merges* (returns the pending completion instead of issuing
    a new fetch).  When all entries are busy, the requester stalls until the
    earliest entry retires.

    Entries retire lazily, at the next lookup or allocation whose cycle
    has reached their ready cycle.  A min-heap of ``(ready, seq, line)``
    indexes them by ready cycle, so retiring costs a heap pop per retired
    entry instead of a scan over the table.  A heap record is *stale* once
    its line was dropped or re-allocated with another ready cycle; stale
    records are skipped when they surface.
    """

    #: Upper bound on the stall charged for a full table.  In hardware a
    #: full MSHR throttles the *producer* (the warp stops issuing), which
    #: spreads the pressure; charging the full queueing delay here instead
    #: creates a positive feedback loop (stall -> longer residence -> fuller
    #: table) that snowballs, so the charge is capped.
    MAX_STALL = 256

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("MSHR table needs at least one entry")
        self.num_entries = num_entries
        self._entries: dict[int, int] = {}
        self._heap: list[tuple[int, int, int]] = []
        self._seq = 0
        self.merges = 0
        self.stall_cycles = 0

    def _retire_before(self, cycle: int) -> None:
        heap = self._heap
        entries = self._entries
        while heap and heap[0][0] <= cycle:
            ready, _, line = heappop(heap)
            if entries.get(line) == ready:
                del entries[line]

    def _earliest_ready(self) -> int:
        """Smallest ready cycle in a non-empty table (drops stale tops)."""
        heap = self._heap
        entries = self._entries
        while entries.get(heap[0][2]) != heap[0][0]:
            heappop(heap)
        return heap[0][0]

    def lookup(self, line_addr: int, cycle: int) -> int | None:
        """Pending completion cycle if the line's fetch is in flight."""
        self._retire_before(cycle)
        ready = self._entries.get(line_addr)
        if ready is not None:
            self.merges += 1
        return ready

    def allocate(self, line_addr: int, cycle: int, ready_cycle: int) -> int:
        """Reserve an entry for a new miss.

        Returns the cycle the allocation actually happened (later than
        ``cycle`` if the requester had to stall for a free entry); the
        caller should shift its completion accordingly.
        """
        self._retire_before(cycle)
        alloc_cycle = cycle
        if len(self._entries) >= self.num_entries:
            earliest = self._earliest_ready()
            stall = min(max(0, earliest - cycle), self.MAX_STALL)
            self.stall_cycles += stall
            alloc_cycle = cycle + stall
            self._retire_before(alloc_cycle)
            # If retiring by timestamp freed nothing (all entries complete
            # in the future), drop the earliest to keep the model moving.
            if len(self._entries) >= self.num_entries:
                victim = min(self._entries, key=self._entries.get)  # type: ignore[arg-type]
                del self._entries[victim]
        ready = ready_cycle + (alloc_cycle - cycle)
        self._entries[line_addr] = ready
        heappush(self._heap, (ready, self._seq, line_addr))
        self._seq += 1
        return alloc_cycle

    def outstanding(self) -> int:
        return len(self._entries)
