"""Hot and blazing filters: the gradual selectivity of PARROT (§2.3).

Both filters are small counter caches keyed by TID.  Every committed
trace-shaped segment increments its TID's counter in the hot filter; only
TIDs whose counters cross the *hot threshold* get constructed and inserted
into the trace cache.  Executions out of the trace cache increment the
blazing filter; TIDs crossing the *blazing threshold* are handed to the
dynamic optimizer.  This two-stage filtering is the key power-awareness
mechanism: construction and (expensive) optimization energy is only spent
on code whose reuse will amortise it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.pipeline.segment_batch import LRU_JOURNAL_LIMIT, flush_lru_refreshes
from repro.trace.tid import TraceId


@dataclass(slots=True)
class FilterStats:
    """Accounting for one counter-cache filter."""

    accesses: int = 0
    triggers: int = 0       #: counter crossings of the threshold
    evictions: int = 0
    hits: int = 0           #: accesses that found their TID resident


class CounterFilter:
    """An LRU counter cache with a saturation threshold.

    ``access(tid)`` increments the TID's counter (allocating, and evicting
    the LRU entry, if needed) and returns True exactly once — when the
    counter crosses the threshold.  Eviction loses the count, so
    insufficiently frequent TIDs never trigger: the filtering effect.
    """

    def __init__(self, capacity: int, threshold: int):
        if capacity < 1:
            raise ConfigurationError(f"filter capacity {capacity} must be >= 1")
        if threshold < 1:
            raise ConfigurationError(f"filter threshold {threshold} must be >= 1")
        self.capacity = capacity
        self.threshold = threshold
        self._counters: dict[TraceId, int] = {}
        #: Deferred move-to-MRU journal (see trace_cache): hits update the
        #: counter in place and journal their recency; the reorder settles
        #: in one step right before an eviction has to pick a victim.
        self._pending_mru: list[TraceId] = []
        self.stats = FilterStats()

    def access(self, tid: TraceId) -> bool:
        """Count one occurrence of ``tid``; True when it just became hot."""
        self.stats.accesses += 1
        counters = self._counters
        count = counters.get(tid)
        pending = self._pending_mru
        if count is None:
            if len(counters) >= self.capacity:
                flush_lru_refreshes(counters, pending)
                oldest = next(iter(counters))
                del counters[oldest]
                self.stats.evictions += 1
            counters[tid] = 1
            # Allocations set recency too: journal them so the flush
            # re-ranks earlier journaled hits *before* this key, exactly
            # where eager move-to-MRU would have left them.
            pending.append(tid)
            return self.threshold == 1 and self._trigger()
        self.stats.hits += 1
        counters[tid] = count + 1
        pending.append(tid)
        if len(pending) >= LRU_JOURNAL_LIMIT:
            flush_lru_refreshes(counters, pending)
        if count + 1 == self.threshold:
            return self._trigger()
        return False

    def _trigger(self) -> bool:
        self.stats.triggers += 1
        return True

    def count(self, tid: TraceId) -> int:
        """Current counter value of ``tid`` (0 when not resident)."""
        return self._counters.get(tid, 0)

    def forget(self, tid: TraceId) -> None:
        """Drop a TID (e.g. when its trace is evicted from the cache)."""
        if self._counters.pop(tid, None) is not None and self._pending_mru:
            # Journaled refreshes for a forgotten TID are void: were they
            # left behind, a later re-allocation of the same TID would be
            # re-ranked by its *stale* access position at the next flush.
            self._pending_mru[:] = [
                pending for pending in self._pending_mru if pending != tid
            ]

    def __len__(self) -> int:
        return len(self._counters)
