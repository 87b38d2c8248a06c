"""Functional warmup: keep machine state live across a fast-forward.

Long-lived microarchitectural state — cache contents, branch-predictor
tables, the trace predictor's path history, the hot/blazing filters and
the trace cache itself — decays into staleness while the sampler
fast-forwards.  Two mechanisms keep it live:

* :meth:`WarmupPolicy.functional_skip` — functional warming over the tail
  of each gap (SMARTS-style, applied to the ``func_warm`` suffix): the
  allocation-free skip walk probes the icache once per line, the dcache
  once per access and trains the branch predictor on every CTI.  The L1s
  and the gshare tables re-converge within a few thousand instructions,
  so warming only the suffix recovers nearly all the accuracy of
  always-on warming at a fraction of the cost; the slow-decaying L2/BTB
  survive the plain-skipped front of the gap on their own.
* :meth:`WarmupPolicy.warm` — a short window before each detailed
  interval that additionally replays the *trace machinery*: segment
  selection, trace prediction, hot-execution accounting and the
  background phases, re-synchronising the trace predictor's path history
  and the filters right before measurement begins.

The warmup clock: background phases (construction latency, optimizer
occupancy, trace aging) compare against the core's cycle clock, which
does not advance while fast-forwarding.  ``warm`` therefore advances a
synthetic clock — ``cpi`` estimated cycles per skipped instruction — so
in-flight construction and optimization complete across gaps exactly as
they would in a full-detail run (a frozen clock would starve the
optimizer and never age traces).

Statistic shielding: the warmed components mutate counters that feed the
simulation result (hierarchy events, trace-unit stats, background energy
events, trace-predictor stats).  ``warm()`` swaps each of them for a
throwaway of the same type for the duration of the window and restores
the originals afterwards, so warmup traffic is structurally invisible to
the measurement — the same contract as
:meth:`~repro.memory.hierarchy.MemoryHierarchy.prewarm`.  (The
functional-skip path needs no shielding: sampled measurements are
snapshot *deltas* around each detailed interval, and skip warming happens
entirely outside them.)

The module is deliberately import-free: every collaborator arrives as a
constructor argument and throwaways are built with ``type(obj)()``, so the
warmup path can never create an import cycle with the machine modules.
"""

from __future__ import annotations

#: Instructions pulled from the stream per bulk step of the warmup loop.
_WARMUP_BATCH = 1024


class WarmupPolicy:
    """Warm one assembled machine's long-lived state from a dynamic stream."""

    __slots__ = ("hierarchy", "bpred", "tpred", "background", "core",
                 "_line_shift")

    def __init__(self, hierarchy, bpred, tpred=None, background=None,
                 core=None):
        self.hierarchy = hierarchy
        self.bpred = bpred
        self.tpred = tpred
        self.background = background
        self.core = core
        self._line_shift = hierarchy.config.l1i.line_bytes.bit_length() - 1

    def functional_skip(self, stream, count: int) -> int:
        """Fast-forward ``count`` instructions with always-on warming.

        Returns the number of instructions actually skipped.
        """
        return stream.skip(count, warm=(
            self.hierarchy.warm_fetch,
            self.hierarchy.warm_data,
            self.bpred.warm_train,
            self._line_shift,
        ))

    def warm(self, stream, count: int, selector, cpi: float = 1.0) -> int:
        """Consume up to ``count`` instructions from ``stream``, training
        caches, predictors and the trace machinery; returns the number
        actually consumed.

        ``selector`` segments the warmup stream; it is shared with the
        detailed interval that follows, so segment boundaries (and the
        trace predictor's path history) flow continuously from warmup into
        measurement.  ``cpi`` paces the synthetic warmup clock the
        background phases observe.

        Each batch first replays its warming effects (icache probe per
        new line, dcache touch per access, predictor training per CTI),
        then runs through :meth:`TraceSelector.feed`, training the trace
        machinery on every completed segment.  Warming and trace-machinery
        training touch disjoint components, and each segment trains
        against the clock of its own stream position, so batching is
        state-identical to interleaving them per instruction.
        """
        hierarchy = self.hierarchy
        fetch = hierarchy.warm_fetch
        touch_data = hierarchy.warm_data
        predict_and_train = self.bpred.warm_train
        feed = selector.feed
        train_segment = self._train_segment
        line_shift = self._line_shift
        clock = self.core.cycles if self.core is not None else 0.0

        saved = self._shield()
        consumed = 0
        last_line = -1
        try:
            consumed = self._warm_columns(stream, count, selector, cpi, clock)
            while consumed < count:
                batch = stream.take_batch(min(_WARMUP_BATCH, count - consumed))
                if not batch:
                    break
                for dyn in batch:
                    instr = dyn.instr
                    line = instr.address >> line_shift
                    if line != last_line:
                        fetch(instr.address)
                        last_line = line
                    if dyn.mem_addr is not None:
                        # A line touch is a line touch: loads and stores
                        # install identically, and the (shielded) event
                        # split is irrelevant here.
                        touch_data(dyn.mem_addr)
                    if instr.is_cti:
                        predict_and_train(instr, dyn.taken, dyn.next_address)
                for segment, position in feed(batch, consumed):
                    train_segment(segment, clock + position * cpi)
                consumed += len(batch)
        finally:
            self._unshield(saved)
        return consumed

    def _warm_columns(self, stream, count: int, selector, cpi: float,
                      clock: float) -> int:
        """Columnar fast path of :meth:`warm` over recorded artifact rows.

        When the stream replays a compiled artifact, the window is warmed
        from raw column slices: the warming side effects (icache probe
        per new line, dcache touch per access, predictor training per
        CTI) replay without decoding instruction objects, and segment
        selection runs through the selector's columnar scanner, which
        hands its in-progress state to ``selector`` at the end of the
        window.  Warming effects and trace-machinery training touch
        disjoint components, so batching them per column block is
        state-identical to interleaving them per instruction — the
        synthetic clock each completed segment trains against depends only
        on its stream position, which the scanner reports exactly, as
        :meth:`TraceSelector.feed` does for the object-fed loop.

        Returns the number of instructions consumed; ``0`` means the fast
        path does not apply (generating walker, or a selector that
        already holds state) and the caller must run the object-fed loop.
        """
        if count <= 0 or not selector.pristine:
            return 0
        hierarchy = self.hierarchy
        fetch = hierarchy.warm_fetch
        touch_data = hierarchy.warm_data
        predict_and_train = self.bpred.warm_train
        train_segment = self._train_segment
        line_shift = self._line_shift
        consumed = 0
        last_line = -1
        scanner = None

        def on_segment(segment, position):
            train_segment(segment, clock + position * cpi)

        while consumed < count:
            raw = stream.consume_raw(count - consumed)
            if raw is None:
                break
            walker, lo, index = raw
            if not index:
                break
            if scanner is None:
                scanner = selector.columnar_scanner(
                    walker.materialize, *walker.select_tables()
                )
            last_line = walker.warm_effects(
                lo, lo + len(index), fetch, touch_data, predict_and_train,
                line_shift, last_line,
            )
            scanner.consume(lo, index, consumed, on_segment)
            consumed += len(index)
        if scanner is not None:
            scanner.transfer(selector)
        return consumed

    # -- trace-machinery training ------------------------------------------

    def _train_segment(self, segment, now: float) -> None:
        """Functionally replay the fetch selector + background phases.

        Mirrors the simulator's segment loop without the timing core: the
        trace predictor predicts and trains, a correct confident prediction
        of a resident trace counts as a hot execution (feeding the blazing
        filter and, transitively, the optimizer), and every committed
        segment trains the hot filter / construction path — all against
        the advancing warmup clock ``now``.
        """
        tpred = self.tpred
        background = self.background
        if tpred is not None:
            predicted = tpred.predict()
            if predicted is not None and background is not None:
                trace = background.trace_cache.lookup(predicted)
                if trace is not None and predicted == segment.tid:
                    trace.exec_count += 1
                    background.after_hot_execution(trace, now)
            tpred.train(segment.tid)
        if background is not None:
            background.after_commit(segment, now)

    # -- statistic shielding ------------------------------------------------

    def _shield(self) -> tuple:
        """Swap every result-feeding counter for a same-typed throwaway."""
        hierarchy, tpred, background = self.hierarchy, self.tpred, self.background
        saved = (
            hierarchy.events,
            tpred.stats if tpred is not None else None,
            background.events if background is not None else None,
            background.stats if background is not None else None,
        )
        hierarchy.events = type(hierarchy.events)()
        if tpred is not None:
            tpred.stats = type(tpred.stats)()
        if background is not None:
            # Settle batched filter accesses into the *real* counters
            # before swapping them out, so nothing leaks across the shield.
            background.flush_filter_events()
            background.events = type(background.events)()
            background.stats = type(background.stats)()
        return saved

    def _unshield(self, saved: tuple) -> None:
        """Restore the counters swapped out by :meth:`_shield`."""
        h_events, t_stats, b_events, b_stats = saved
        self.hierarchy.events = h_events
        if self.tpred is not None:
            self.tpred.stats = t_stats
        if self.background is not None:
            # Warmup-window accesses still pending fold into the throwaway.
            self.background.flush_filter_events()
            self.background.events = b_events
            self.background.stats = b_stats
