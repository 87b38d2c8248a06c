"""The trace cache: storage for decoded, selectively optimized traces.

The trace cache stores whole decoded traces keyed by TID, bounded by a
total uop capacity (the hardware analogue: a fixed number of 64-uop
frames).  Replacement is LRU over traces.  Storing *decoded* uops is what
lets the hot pipeline skip the expensive variable-length IA32 decode on
every re-execution (§2.1-2.2); storing *optimized* traces is what lets one
optimization pay off across many executions (§2.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.pipeline.segment_batch import LRU_JOURNAL_LIMIT, flush_lru_refreshes
from repro.trace.tid import TraceId
from repro.trace.trace import Trace


@dataclass(slots=True)
class TraceCacheStats:
    """Access accounting of the trace cache."""

    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    replacements: int = 0    #: optimized trace written over the original
    evictions: int = 0
    uops_written: int = 0

    @property
    def hit_rate(self) -> float:
        """Lookup hit fraction."""
        return self.hits / self.lookups if self.lookups else 0.0


class TraceCache:
    """LRU trace storage bounded by total uop capacity."""

    def __init__(self, capacity_uops: int = 16 * 1024):
        if capacity_uops < 64:
            raise ConfigurationError(
                f"trace cache of {capacity_uops} uops cannot hold one frame"
            )
        self.capacity_uops = capacity_uops
        self._traces: dict[TraceId, Trace] = {}
        self._used_uops = 0
        #: Deferred move-to-MRU journal: recurring hot sequences hit the
        #: same few TIDs thousands of times between insertions, so hits
        #: journal their refresh and the reorder is applied in one step
        #: right before recency becomes observable (insert / enumerate).
        self._pending_mru: list[TraceId] = []
        self.stats = TraceCacheStats()

    # -- lookups -----------------------------------------------------------

    def lookup(self, tid: TraceId) -> Trace | None:
        """Fetch the trace for ``tid`` (refreshes LRU position)."""
        self.stats.lookups += 1
        trace = self._traces.get(tid)
        if trace is None:
            return None
        pending = self._pending_mru
        pending.append(tid)
        if len(pending) >= LRU_JOURNAL_LIMIT:
            flush_lru_refreshes(self._traces, pending)
        self.stats.hits += 1
        return trace

    def contains(self, tid: TraceId) -> bool:
        """Presence check without LRU or stats side effects."""
        return tid in self._traces

    # -- updates --------------------------------------------------------------

    def insert(self, trace: Trace) -> list[TraceId]:
        """Insert a newly constructed trace; returns any evicted TIDs.

        Inserting a TID that is already resident replaces it in place (the
        optimizer writing back an optimized trace).
        """
        if trace.num_uops > self.capacity_uops:
            raise ConfigurationError(
                f"trace of {trace.num_uops} uops exceeds the cache capacity "
                f"of {self.capacity_uops} uops"
            )
        # Recency is about to matter (eviction must pick the true LRU
        # victim): settle the journal first.
        flush_lru_refreshes(self._traces, self._pending_mru)
        evicted: list[TraceId] = []
        tid = trace.tid
        existing = self._traces.get(tid)
        if existing is not None:
            self._used_uops -= existing.num_uops
            del self._traces[tid]
            self.stats.replacements += 1
        while self._used_uops + trace.num_uops > self.capacity_uops and self._traces:
            old_tid, old_trace = next(iter(self._traces.items()))
            del self._traces[old_tid]
            self._used_uops -= old_trace.num_uops
            self.stats.evictions += 1
            evicted.append(old_tid)
        self._traces[tid] = trace
        self._used_uops += trace.num_uops
        self.stats.inserts += 1
        self.stats.uops_written += trace.num_uops
        return evicted

    # -- introspection -----------------------------------------------------------

    @property
    def num_traces(self) -> int:
        """Resident trace count."""
        return len(self._traces)

    @property
    def used_uops(self) -> int:
        """Total uops currently stored."""
        return self._used_uops

    def resident_traces(self) -> list[Trace]:
        """Snapshot of resident traces, LRU to MRU."""
        flush_lru_refreshes(self._traces, self._pending_mru)
        return list(self._traces.values())
