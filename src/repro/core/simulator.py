"""The PARROT machine simulator: dual front-ends over a shared timing core.

The simulator is trace-driven (§3): it consumes an application's dynamic
instruction stream, deterministically partitioned into trace-shaped
segments by :class:`~repro.trace.selection.TraceSelector` (the selection
criteria are pure functions of the committed stream).  Per segment, the
*fetch selector* consults the trace predictor (higher priority) and falls
back to the branch-predicted cold pipeline (§2.3):

* confident next-TID prediction + trace-cache hit + prediction correct →
  the segment executes on the **hot pipeline**: decoded (possibly
  optimized) uops stream from the trace cache, no decode, internal CTIs
  are asserts, the trace commits atomically;
* confident but *wrong* prediction with a resident trace → a **trace
  mispredict**: the flushed hot work is charged, recovery is paid, and the
  segment re-executes cold;
* otherwise → the **cold pipeline**: icache fetch groups (taken-branch
  limited), serial variable-length decode, per-CTI branch prediction.

Both outcomes feed the background phases (filters, construction,
optimization), giving the continuous training the paper requires.

Two simulation regimes share this machinery:

* **full detail** (the default): every instruction of the stream runs on
  the timing core — bit-identical to the historical simulator, pinned by
  the parity goldens;
* **sampled** (``RunOptions(sampling=...)``): short detailed intervals
  alternate with cheap fast-forward gaps; functional warmup
  re-establishes cache/predictor/trace state before each interval, and the
  per-interval measurements aggregate into population estimates with
  confidence intervals.  With ``mode="adaptive"``, each period's
  fast-forward lead additionally collects a phase signature
  (:mod:`repro.sampling.phases`) and recurring phases reuse their
  existing measurements instead of spending another detailed interval —
  detail is budgeted by confidence targets, not by period count.
"""

from __future__ import annotations

import warnings
from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass

from repro.core.background import BackgroundProcessor
from repro.core.config import MachineConfig
from repro.core.results import SimulationResult, TraceUnitStats
from repro.errors import SamplingWarning, SimulationError
from repro.frontend.branch_predictor import BranchPredictor
from repro.frontend.fetch import plan_cold_groups, trace_fetch_cycles
from repro.frontend.trace_predictor import TracePredictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.columnar import ExecutionBackend
from repro.pipeline.core import TimingCore, compile_plan_stats, compile_uop_row
from repro.pipeline.segment_batch import compile_hot_training, run_hot_training
from repro.pipeline.resources import ExecProfile
from repro.power.energy import EnergyModel
from repro.power.events import EventCounts
from repro.sampling.config import SamplingConfig
from repro.sampling.estimator import (
    IntervalMeasurement,
    SampledEstimate,
    build_estimate,
)
from repro.sampling.phases import (
    PhaseClassifier,
    PhaseSignature,
    PhaseTracker,
)
from repro.sampling.scheduler import Interval, plan_intervals
from repro.sampling.warmup import WarmupPolicy
from repro.trace.selection import TraceSegment, TraceSelector
from repro.trace.tid import TraceId
from repro.trace.trace import TRACE_CAPACITY_UOPS, Trace
from repro.workloads.program import Program
from repro.workloads.stream import InstructionStream
from repro.workloads.suite import Application
from repro.workloads.tracefile import TraceArtifact


#: Instructions pulled from the walker per bulk step of the segmentation
#: loop (amortises the per-call overhead of the stream interface).
_SEGMENT_BATCH = 4096

#: Post-prewarm hierarchy states, keyed by (hierarchy config, prewarm
#: image).  The prewarmed L1I/L2 tag state is a pure function of the key,
#: and a figure grid assembles one machine per model over the *same*
#: application image — so the walk of :meth:`MemoryHierarchy.prewarm` is
#: paid once per application and every later machine restores the
#: snapshot (a straight dict copy, ~10x cheaper).  Bounded: grids visit
#: applications chunk-wise, so a couple of entries give a full hit rate.
_PREWARM_STATES: OrderedDict[tuple, tuple] = OrderedDict()
_PREWARM_STATE_LIMIT = 4


def segment_stream(
    stream: InstructionStream,
    limit: int | None = None,
    selector: TraceSelector | None = None,
) -> Iterator[TraceSegment]:
    """Partition a dynamic stream into trace-shaped segments, in order.

    ``limit`` bounds the number of instructions consumed (the sampled
    simulator's detail-interval window); ``selector`` continues an
    existing selection (so segment boundaries flow from a warmup window
    into the measured interval).  The defaults — whole stream, fresh
    selector — are the historical full-detail behaviour.
    """
    if selector is None:
        selector = TraceSelector()
    feed = selector.feed
    take_batch = stream.take_batch
    remaining = limit
    while True:
        if remaining is None:
            batch = take_batch(_SEGMENT_BATCH)
        else:
            if remaining <= 0:
                break
            batch = take_batch(min(_SEGMENT_BATCH, remaining))
        if not batch:
            break
        if remaining is not None:
            remaining -= len(batch)
        for segment, _position in feed(batch):
            yield segment
    yield from selector.flush()


class _Machine:
    """One assembled machine: every mutable structure of a running model.

    The full-detail path assembles one per run and discards it; the
    sampled path keeps it alive across fast-forward gaps so caches,
    predictors, filters and the trace cache age exactly like hardware
    would.
    """

    __slots__ = (
        "config",
        "events",
        "result",
        "core",
        "hot_profile",
        "cold_profile",
        "hierarchy",
        "bpred",
        "tpred",
        "background",
        "cold_plans",
        "last_pipeline",
    )

    def __init__(self, config, events, result, core, hot_profile,
                 cold_profile, hierarchy, bpred, tpred, background,
                 cold_plans=None):
        self.config = config
        self.events = events
        self.result = result
        self.core = core
        self.hot_profile = hot_profile
        self.cold_profile = cold_profile
        self.hierarchy = hierarchy
        self.bpred = bpred
        self.tpred = tpred
        self.background = background
        # Cold fetch-group plan cache.  Grouping depends only on a
        # segment's instruction path, which a *complete* segment's TID
        # fully determines; incomplete tail segments can alias a real TID
        # and are never cached.  Private per run by default; a full-detail
        # artifact run passes the artifact's dict for its fetch parameters,
        # shared by every model replaying that artifact's one partition.
        self.cold_plans: dict[TraceId, tuple] = (
            {} if cold_plans is None else cold_plans
        )
        self.last_pipeline = "cold"


@dataclass(slots=True)
class SampledRun:
    """Outcome of one sampled simulation.

    ``result`` is a full :class:`~repro.core.results.SimulationResult`
    extrapolated from the detailed intervals to the represented stream
    length (so every figure and store path consumes it unchanged);
    ``estimate`` carries the per-metric means and confidence intervals.
    """

    result: SimulationResult
    estimate: SampledEstimate


@dataclass(frozen=True)
class RunOptions:
    """How to simulate a source — the options half of :meth:`simulate`.

    One immutable bundle of every per-run choice:

    * ``sampling`` — sampled simulation (detail intervals + fast-forward);
      ``None`` falls back to ``config.sampling``, which is ``None`` — full
      detail — for every stock model;
    * ``prewarm`` — start the memory hierarchy in steady state (the
      paper's 30-100M-instruction traces amortise compulsory misses; our
      much shorter runs must not be dominated by them);
    * ``backend`` — selects nothing: both
      :class:`~repro.pipeline.columnar.ExecutionBackend` values run the
      one executor.  Kept because the benchmark passes ``COMPILED``; it
      retires in ROADMAP item 2, step 1;
    * ``estimate`` — return the :class:`SampledRun` (result + confidence
      intervals) instead of just the extrapolated result.
    """

    sampling: SamplingConfig | None = None
    prewarm: bool = True
    backend: ExecutionBackend = ExecutionBackend.SCALAR
    estimate: bool = False


def compile_cold_plan(instructions: list, params) -> tuple:
    """Compile a segment's cold execution plan: groups of uop rows.

    Returns ``(groups, n_uops, n_reads, n_writes, fu_counts, n_cti)``
    — the groups plus the segment's static event totals (see
    :func:`~repro.pipeline.core.compile_plan_stats`).  Each group is
    ``(start_address, entries)``; each entry is ``(instr_index, rows,
    is_cti)`` with one :func:`~repro.pipeline.core.compile_uop_row`
    row per decoded uop.  Everything here is a static function of the
    segment's instruction path, so complete segments cache the plan
    per TID.
    """
    groups = []
    all_rows = []
    n_cti = 0
    for start_idx, end_idx, start_address in plan_cold_groups(
        instructions, params
    ):
        entries = []
        for idx in range(start_idx, end_idx):
            instr = instructions[idx].instr
            rows = tuple(compile_uop_row(uop) for uop in instr.uops)
            all_rows.extend(rows)
            is_cti = instr.is_cti
            if is_cti:
                n_cti += 1
            entries.append((idx, rows, is_cti))
        groups.append((start_address, entries))
    return (groups, *compile_plan_stats(all_rows), n_cti)


def compile_hot_plan(rows: list, per_cycle: int) -> tuple:
    """Compile a hot trace's execution plan: its uop rows in fetch groups.

    Returns ``(groups, n_uops, n_reads, n_writes, fu_counts)``: one group
    of up to ``per_cycle`` :func:`~repro.pipeline.core.compile_uop_row`
    rows streams from the trace cache per cycle, plus the static event
    totals of :func:`~repro.pipeline.core.compile_plan_stats`.  Uops never
    change once a trace is installed, so the plan is cached on the trace.
    """
    groups = [
        tuple(rows[i:i + per_cycle]) for i in range(0, len(rows), per_cycle)
    ]
    return (groups, *compile_plan_stats(rows))


# bench/tracing.py traces these names and the simulator calls them through
# them.  Both ExecutionBackend values run these same four functions; the
# aliases retire with the enum in ROADMAP item 2, step 1.
compile_hot_specialized = compile_hot_plan
run_hot_compiled = TimingCore.run_hot_plan
compile_cold_specialized = compile_cold_plan
run_cold_compiled = TimingCore.run_cold_plan


#: What :meth:`ParrotSimulator.simulate` accepts as a source: an
#: :class:`~repro.workloads.suite.Application` (plus ``length``), a raw
#: :class:`~repro.workloads.stream.InstructionStream`, or a compiled
#: :class:`~repro.workloads.tracefile.TraceArtifact`.
SimSource = "Application | InstructionStream | TraceArtifact"


class ParrotSimulator:
    """Simulate one machine model; reusable across applications."""

    def __init__(self, config: MachineConfig):
        self.config = config

    # -- public API --------------------------------------------------------

    def simulate(
        self,
        source: SimSource,
        options: RunOptions | None = None,
        *,
        length: int | None = None,
        app_name: str | None = None,
        suite: str | None = None,
        program: Program | None = None,
    ) -> SimulationResult | SampledRun:
        """Simulate ``source`` under ``options``; the one run entry point.

        ``source`` is an :class:`~repro.workloads.suite.Application` (pass
        ``length``), an :class:`~repro.workloads.stream.InstructionStream`
        (``app_name``/``suite`` label the result, ``program`` prewarms the
        hierarchy, ``length`` is required only for sampled runs), or a
        compiled :class:`~repro.workloads.tracefile.TraceArtifact` (which
        carries its own length, labels and prewarm image).  All three are
        bit-identical over the same dynamic stream — pinned by the golden
        parity suite.

        ``options`` is a :class:`RunOptions`; ``None`` means the defaults
        (full detail, prewarmed).  Returns the
        :class:`~repro.core.results.SimulationResult`, or the
        :class:`SampledRun` (result + confidence intervals) when
        ``options.estimate`` is set.

        Raises :class:`~repro.errors.SimulationError`, naming the
        offending source, for degenerate inputs (non-positive length,
        empty artifact) and option/source mismatches — validation lives
        here and nowhere else.
        """
        if options is None:
            options = RunOptions()
        sampling = options.sampling
        if sampling is None:
            sampling = self.config.sampling
        sampled = sampling is not None or options.estimate

        if isinstance(source, Application):
            label = f"simulate({source.name})"
            if length is None:
                raise SimulationError(
                    f"{label}: an Application source needs an explicit "
                    f"run length"
                )
            if length < 1:
                raise SimulationError(
                    f"{label}: run length {length} must be positive"
                )
            self._reject_stream_kwargs(label, app_name, suite, program)
            workload = source.build()
            stream = workload.stream(length)
            total = length
            name, suite_name = source.name, source.suite
            image = (
                self._prewarm_image(workload.program)
                if options.prewarm else None
            )
        elif isinstance(source, TraceArtifact):
            label = f"simulate({source.app_name} artifact)"
            total = len(source)
            if total < 1:
                raise SimulationError(
                    f"{label}: degenerate artifact at {source.path} "
                    f"({total} instructions)"
                )
            if length is not None:
                raise SimulationError(
                    f"{label}: an artifact carries its own length "
                    f"({total}); do not pass one"
                )
            self._reject_stream_kwargs(label, app_name, suite, program)
            name, suite_name = source.app_name, source.suite
            image = (
                (source.prewarm_code, source.prewarm_data)
                if options.prewarm else None
            )
            stream = source.stream() if sampled else None
        elif isinstance(source, InstructionStream):
            name = app_name if app_name is not None else "custom"
            suite_name = suite if suite is not None else "Custom"
            label = f"simulate({name} stream)"
            if length is not None and length < 1:
                raise SimulationError(
                    f"{label}: run length {length} must be positive"
                )
            if sampled and length is None:
                raise SimulationError(
                    f"{label}: a sampled run over a raw stream needs an "
                    f"explicit length"
                )
            stream = source
            total = length
            image = (
                self._prewarm_image(program) if options.prewarm else None
            )
        else:
            raise SimulationError(
                f"simulate() cannot run a {type(source).__name__}; pass an "
                f"Application, InstructionStream or TraceArtifact"
            )

        if sampled:
            run = self._run_sampled(
                stream, total, sampling,
                app_name=name, suite=suite_name, prewarm=image,
            )
            return run if options.estimate else run.result

        if isinstance(source, TraceArtifact):
            # A full-detail artifact run replays the artifact's own
            # partition and shares its cold plans with every model of
            # equal fetch parameters.
            segments = iter(source.segments())
            plans = source.cold_plans(self.config.fetch)
        else:
            segments = segment_stream(stream, length)
            plans = None
        machine = self._assemble(
            app_name=name, suite=suite_name, prewarm=image,
            cold_plans=plans,
        )
        self._execute_segments(machine, segments)
        return self._conclude(machine)

    @staticmethod
    def _reject_stream_kwargs(label, app_name, suite, program) -> None:
        if app_name is not None or suite is not None or program is not None:
            raise SimulationError(
                f"{label}: app_name/suite/program apply to "
                f"InstructionStream sources only"
            )

    # -- machine assembly ------------------------------------------------------

    @staticmethod
    def _prewarm_image(program: Program | None) -> tuple | None:
        """The ``(code_addresses, data_ranges)`` prewarm image of a program.

        The image covers the *full* static program — including code and
        data the stream never touches — and preserves program order, so a
        replayed artifact (which persists this image) prewarms the
        hierarchy into the bit-identical state, LRU recency included.
        """
        if program is None:
            return None
        return (
            program.instructions.keys(),
            [(spec.base, spec.extent) for spec in program.mem_specs.values()],
        )

    def _assemble(
        self,
        *,
        app_name: str,
        suite: str,
        prewarm: tuple | None,
        cold_plans: dict[TraceId, tuple] | None = None,
    ) -> _Machine:
        """Build every structure of one run: core, hierarchy, predictors.

        ``cold_plans`` seeds the machine's cold-plan cache with an
        artifact's shared dict (see :meth:`simulate`); by default every
        machine gets a private one.
        """
        config = self.config
        events = EventCounts()
        stats = TraceUnitStats()
        result = SimulationResult(
            app_name=app_name, suite=suite, model_name=config.name,
            trace_stats=stats,
        )

        core = TimingCore(config.core, events)
        hot_profile = ExecProfile.from_params(config.core)
        cold_profile = config.cold_profile or hot_profile
        hierarchy = MemoryHierarchy(config.hierarchy)
        if prewarm is not None:
            code_addresses, data_ranges = prewarm
            key = (
                config.hierarchy, tuple(code_addresses), tuple(data_ranges)
            )
            state = _PREWARM_STATES.get(key)
            if state is None:
                hierarchy.prewarm(
                    code_addresses=code_addresses, data_ranges=data_ranges
                )
                _PREWARM_STATES[key] = hierarchy.warm_state()
                while len(_PREWARM_STATES) > _PREWARM_STATE_LIMIT:
                    _PREWARM_STATES.popitem(last=False)
            else:
                _PREWARM_STATES.move_to_end(key)
                hierarchy.restore_warm_state(state)
        bpred = BranchPredictor(config.bpred_entries)
        tpred = (
            TracePredictor(
                config.tpred_entries,
                confidence_threshold=config.tpred_confidence,
                mispredict_penalty=config.tpred_mispredict_penalty,
            )
            if config.has_trace_cache
            else None
        )
        background = (
            BackgroundProcessor(config, events, stats)
            if config.has_trace_cache
            else None
        )
        return _Machine(
            config, events, result, core, hot_profile, cold_profile,
            hierarchy, bpred, tpred, background, cold_plans=cold_plans,
        )

    def _energy_model(self) -> EnergyModel:
        """The per-model energy evaluator (tag matrix + leakage)."""
        config = self.config
        return EnergyModel(
            config.core,
            sizes=config.structure_sizes,
            calibration=config.calibration,
            l2_mbytes=config.hierarchy.l2_mbytes,
            extra_area=config.extra_area,
        )

    # -- full-detail regime ----------------------------------------------------

    def _conclude(self, machine: _Machine) -> SimulationResult:
        """Finish a full-detail run: invariants, cycles, energy, events."""
        core = machine.core
        core.check_invariants()
        core.flush_events()
        result = machine.result
        result.cycles = max(core.cycles, 1.0)
        self._finalize(result, machine.hierarchy, machine.tpred,
                       machine.events)
        return result

    # -- the segment loop (shared by both regimes) -----------------------------

    def _execute_segments(
        self, machine: _Machine, segments: Iterator[TraceSegment]
    ) -> None:
        """Execute a segment sequence on an assembled machine.

        The fetch-selector loop of the simulator: identical for full-detail
        runs (one call over the whole stream) and sampled runs (one call
        per detailed interval, machine state persisting in between).
        """
        config = self.config
        events = machine.events
        result = machine.result
        stats = result.trace_stats
        core = machine.core
        hot_profile = machine.hot_profile
        cold_profile = machine.cold_profile
        hierarchy = machine.hierarchy
        bpred = machine.bpred
        tpred = machine.tpred
        background = machine.background
        cold_plans = machine.cold_plans

        # Segment-loop events accumulate in locals and fold into
        # ``events`` once per call — per-plan reductions, like the
        # executors' own batched stats.  This now covers the executors'
        # per-segment traffic too: hot frame reads and virtual-rename
        # discounts, and the cold pipeline's fetch/decode/predictor/flush
        # totals, which the plans report and this loop sums.  All counts
        # are integer-valued, so the fold is exact; the zero-guards below
        # keep a key absent whenever the per-occurrence form never
        # created it, and each first occurrence still registers its key
        # immediately because the energy model's float accumulation
        # follows event insertion order.  Interval snapshots only read
        # ``events`` after this method returns.
        n_tpred_lookup = 0
        n_tcache_tag = 0
        n_tpred_update = 0
        n_bpred_update = 0
        n_hot_frames = 0
        n_rename_virtual = 0
        n_fetch_cycle = 0
        n_decode_instr = 0
        n_bpred_lookup = 0
        n_mispredict_flush = 0

        # The loop body runs once per segment: bind the per-segment call
        # targets once (attribute chains cost as much as the calls here).
        trace_machinery = tpred is not None and background is not None
        if tpred is not None:
            tpred_predict = tpred.predict
            tpred_train = tpred.train
        if background is not None:
            tcache_lookup = background.trace_cache.lookup
            after_hot_execution = background.after_hot_execution
            after_commit = background.after_commit
        is_split = config.is_split
        history_bits = bpred.history_bits

        last_pipeline = machine.last_pipeline
        for segment in segments:
            executed_hot = False
            trace: Trace | None = None
            predicted = None
            if trace_machinery and segment.complete:
                predicted = tpred_predict()
                n_tpred_lookup += 1
                if n_tpred_lookup == 1:
                    events.add("tpred_lookup", 0)
                if predicted is not None:
                    trace = tcache_lookup(predicted)
                    n_tcache_tag += 1  # tag lookup
                    if n_tcache_tag == 1:
                        events.add("tcache_read", 0)
                    if trace is None:
                        stats.tcache_miss_on_predict += 1
                    elif predicted == segment.tid:
                        if is_split and last_pipeline != "hot":
                            core.apply_state_switch(config.state_switch_latency)
                            core.stall_fetch(1)
                        core.set_profile(hot_profile)
                        self._execute_hot(
                            core, hierarchy, result, trace, segment,
                        )
                        n_hot_frames += 1
                        if trace.optimized and trace.virtual_renames:
                            if not n_rename_virtual:
                                events.add("rename_virtual", 0)
                            n_rename_virtual += trace.virtual_renames
                        after_hot_execution(trace, core.cycles)
                        # Retire-time training: hot-committed CTIs still
                        # update the branch predictor (no fetch-time lookup
                        # was needed), keeping its global history coherent
                        # for the interleaved cold code.  The CTI outcomes
                        # are a static property of the trace (TID path
                        # identity), so training replays as one compiled
                        # batch cached on the trace.
                        train_plan = trace._train_plan
                        if train_plan is None:
                            train_plan = compile_hot_training(
                                segment.instructions, history_bits
                            )
                            trace._train_plan = train_plan
                        run_hot_training(
                            bpred, train_plan, segment.instructions
                        )
                        n_cti = train_plan[2]
                        if n_cti:
                            if not n_bpred_update:
                                events.add("bpred_update", 0)
                            n_bpred_update += n_cti
                        executed_hot = True
                        last_pipeline = "hot"
                    else:
                        # Wrong trace started on the hot pipeline: flush.
                        if is_split and last_pipeline != "hot":
                            core.apply_state_switch(config.state_switch_latency)
                            core.stall_fetch(1)
                            last_pipeline = "hot"
                        self._trace_mispredict(
                            core, events, result, trace, segment
                        )
                        stats.trace_mispredicts += 1
            if not executed_hot:
                if is_split and last_pipeline != "cold":
                    core.apply_state_switch(config.state_switch_latency)
                    core.stall_fetch(1)
                core.set_profile(cold_profile)
                n_groups, n_cold_cti, n_misp = self._execute_cold(
                    core, hierarchy, bpred, result, segment, cold_plans,
                )
                if n_groups:
                    if not n_fetch_cycle:
                        events.add("fetch_cycle", 0)
                    n_fetch_cycle += n_groups
                n_instrs = len(segment.instructions)
                if n_instrs:
                    if not n_decode_instr:
                        events.add("decode_instr", 0)
                    n_decode_instr += n_instrs
                if n_cold_cti:
                    if not n_bpred_lookup:
                        events.add("bpred_lookup", 0)
                    n_bpred_lookup += n_cold_cti
                    if not n_bpred_update:
                        events.add("bpred_update", 0)
                    n_bpred_update += n_cold_cti
                if n_misp:
                    if not n_mispredict_flush:
                        events.add("mispredict_flush", 0)
                    n_mispredict_flush += n_misp
                last_pipeline = "cold"

            result.instructions += segment.num_instructions

            # Background phases: continuous training of predictor + filters.
            # Incomplete tail segments never terminated, so the hardware
            # never saw them as traces: no training, no construction.
            if segment.complete:
                if tpred is not None:
                    tpred_train(segment.tid)
                    n_tpred_update += 1
                    if n_tpred_update == 1:
                        events.add("tpred_update", 0)
                if background is not None:
                    after_commit(segment, core.cycles)
        machine.last_pipeline = last_pipeline

        if n_tpred_lookup:
            events.add("tpred_lookup", n_tpred_lookup)
        if n_tcache_tag:
            # Tag probes plus whole-frame reads for every hot execution
            # (frame-granular: a short optimized trace still burns a full
            # frame read).
            events.add(
                "tcache_read",
                n_tcache_tag + n_hot_frames * TRACE_CAPACITY_UOPS,
            )
        if n_bpred_update:
            events.add("bpred_update", n_bpred_update)
        if n_tpred_update:
            events.add("tpred_update", n_tpred_update)
        if n_rename_virtual:
            events.add("rename_virtual", n_rename_virtual)
        if n_fetch_cycle:
            events.add("fetch_cycle", n_fetch_cycle)
        if n_decode_instr:
            events.add("decode_instr", n_decode_instr)
        if n_bpred_lookup:
            events.add("bpred_lookup", n_bpred_lookup)
        if n_mispredict_flush:
            events.add("mispredict_flush", n_mispredict_flush)
        if background is not None:
            background.flush_filter_events()

    # -- sampled regime --------------------------------------------------------

    def _run_sampled(
        self,
        stream: InstructionStream,
        length: int,
        sampling: SamplingConfig | None,
        *,
        app_name: str,
        suite: str,
        prewarm: tuple | None = None,
    ) -> SampledRun:
        if sampling is not None and sampling.mode == "adaptive":
            return self._run_adaptive(
                stream, length, sampling,
                app_name=app_name, suite=suite, prewarm=prewarm,
            )
        machine = self._assemble(
            app_name=app_name, suite=suite, prewarm=prewarm,
        )
        model = self._energy_model()
        if sampling is not None:
            plan = plan_intervals(length, sampling)
            confidence = sampling.confidence
        else:
            plan = [Interval(skip=0, funcwarm=0, warmup=0, detail=length)]
            confidence = 0.95
        exact = len(plan) == 1 and plan[0].detail == length

        warmup_policy = WarmupPolicy(
            machine.hierarchy, machine.bpred, machine.tpred,
            machine.background, machine.core,
        )
        measurements: list[IntervalMeasurement] = []
        aggregate = EventCounts()
        measured_instructions = 0
        measured_cycles = 0.0

        for interval in plan:
            # Estimated cycles per fast-forwarded instruction: paces the
            # synthetic clock the background phases observe during warmup.
            # The core's own clock is left untouched across gaps — jumping
            # it would start every interval with all register-ready times
            # in the past, biasing dependency stalls away.
            cpi = (
                measured_cycles / measured_instructions
                if measured_instructions
                else 1.0
            )
            if interval.skip:
                # Plain-skip the front of the gap, functionally warm its
                # tail: L2/BTB contents survive a plain skip of this length,
                # while L1s and the gshare tables re-converge within the
                # warmed suffix — the split buys most of the fast-forward
                # speed back without the accuracy loss of a cold restart.
                plain = interval.skip - interval.funcwarm
                if plain:
                    stream.skip(plain)
                if interval.funcwarm:
                    warmup_policy.functional_skip(stream, interval.funcwarm)
            delta, instructions, cycles = self._measure_interval(
                machine, warmup_policy, stream,
                interval.warmup, interval.detail, cpi,
            )
            if not instructions:
                continue
            aggregate.merge(delta)
            measured_instructions += instructions
            measured_cycles += cycles
            measurements.append(IntervalMeasurement(
                instructions=instructions,
                cycles=cycles,
                energy=model.evaluate(delta, cycles).total,
            ))

        machine.core.check_invariants()
        if not measured_instructions:
            raise SimulationError(
                f"sampled run of {app_name} measured no instructions "
                f"(length={length}, plan of {len(plan)} intervals)"
            )

        estimate = build_estimate(
            measurements,
            total_instructions=length,
            confidence=confidence,
            exact=exact,
        )
        result = self._extrapolate(
            machine, model, length,
            measured_instructions, measured_cycles, aggregate,
        )
        return SampledRun(result=result, estimate=estimate)

    def _run_adaptive(
        self,
        stream: InstructionStream,
        length: int,
        sampling: SamplingConfig,
        *,
        app_name: str,
        suite: str,
        prewarm: tuple | None = None,
    ) -> SampledRun:
        """Phase-aware sampled run: detail only where the phase needs it.

        Every sampling period fast-forwards its lead while profiling the
        branch-target signature of the skipped instructions; the signature
        classifies the period into a phase.  A phase whose confidence
        targets are already met plain-skips the rest of the period (warmup
        and detail included) and *reuses* its existing measurements; an
        open phase pays the usual functional-warmup + detailed interval
        and records a fresh sample.  Per-phase measurements combine by
        stratified estimation (period counts are the strata weights), and
        extrapolation scales each phase's events by its own period share.
        """
        periods = length // sampling.period
        if periods < sampling.min_intervals:
            warnings.warn(
                f"adaptive sampling of {app_name}: only {periods} full "
                f"sampling periods fit in {length} instructions "
                f"(minimum {sampling.min_intervals}); falling back to "
                f"fixed-interval sampling",
                SamplingWarning,
                stacklevel=2,
            )
            return self._run_sampled(
                stream, length, sampling.as_fixed(),
                app_name=app_name, suite=suite, prewarm=prewarm,
            )

        machine = self._assemble(
            app_name=app_name, suite=suite, prewarm=prewarm,
        )
        model = self._energy_model()
        warmup_policy = WarmupPolicy(
            machine.hierarchy, machine.bpred, machine.tpred,
            machine.background, machine.core,
        )
        classifier = PhaseClassifier(
            threshold=sampling.phase_threshold,
            max_phases=sampling.max_phases,
        )
        tracker = PhaseTracker(
            confidence=sampling.confidence,
            ipc_target=sampling.ipc_target,
            epi_target=sampling.epi_target,
            min_phase_intervals=sampling.min_phase_intervals,
            phase_refresh=sampling.phase_refresh,
        )

        # Period layout mirrors the fixed planner: the profiled lead is
        # the plain-skip prefix of the gap, and the reuse window is what a
        # closed phase may skip wholesale (functional-warm tail + warmup +
        # detail).  ``plan_intervals`` guarantees gap >= warmup; the lead
        # can still be zero when func_warm fills the remainder, in which
        # case every period classifies from an empty signature (one phase).
        funcwarm = min(sampling.func_warm, sampling.gap - sampling.warmup)
        lead = sampling.gap - sampling.warmup - funcwarm
        reuse_window = funcwarm + sampling.warmup + sampling.detail

        # Per-phase measurement cohorts, parallel to the tracker's
        # coverage counts: cohorts[phase][i] = (events, cycles,
        # instructions) of the phase's i-th detailed interval.  Each
        # cohort extrapolates by its own coverage (itself + the reuses it
        # served), so a drifting phase's early samples do not out-weigh
        # the periods they actually stood for.
        cohorts: dict[int, list[tuple[EventCounts, float, int]]] = {}
        measured_instructions = 0
        measured_cycles = 0.0

        for _ in range(periods):
            profile: dict[int, int] = {}
            if lead:
                stream.skip(lead, profile=profile)
            phase = classifier.classify(PhaseSignature.from_profile(profile))
            tracker.observe(phase)
            if not tracker.needs_detail(phase):
                stream.skip(reuse_window)
                tracker.reuse(phase)
                continue
            cpi = (
                measured_cycles / measured_instructions
                if measured_instructions
                else 1.0
            )
            if funcwarm:
                warmup_policy.functional_skip(stream, funcwarm)
            delta, instructions, cycles = self._measure_interval(
                machine, warmup_policy, stream,
                sampling.warmup, sampling.detail, cpi,
            )
            if not instructions:
                continue
            cohorts.setdefault(phase, []).append(
                (delta, cycles, instructions)
            )
            measured_instructions += instructions
            measured_cycles += cycles
            tracker.record(phase, IntervalMeasurement(
                instructions=instructions,
                cycles=cycles,
                energy=model.evaluate(delta, cycles).total,
            ))

        machine.core.check_invariants()
        if not measured_instructions:
            raise SimulationError(
                f"adaptive sampled run of {app_name} measured no "
                f"instructions (length={length}, {periods} periods)"
            )
        if not tracker.reused:
            warnings.warn(
                f"adaptive sampling of {app_name}: no phase recurrence was "
                f"reusable within {periods} periods "
                f"({len(tracker.phases())} phases observed); the run "
                f"degraded to fixed-interval behaviour",
                SamplingWarning,
                stacklevel=2,
            )
        else:
            open_phases = tracker.open_phases()
            if open_phases:
                warnings.warn(
                    f"adaptive sampling of {app_name}: "
                    f"{len(open_phases)} of {len(tracker.phases())} phases "
                    f"ended with confidence targets unmet "
                    f"(ipc<={sampling.ipc_target:g}, "
                    f"epi<={sampling.epi_target:g})",
                    SamplingWarning,
                    stacklevel=2,
                )

        estimate = tracker.build_estimate(total_instructions=length)
        result = self._extrapolate_phases(
            machine, model, length, tracker, cohorts,
            measured_instructions,
        )
        return SampledRun(result=result, estimate=estimate)

    def _extrapolate_phases(
        self,
        machine: _Machine,
        model: EnergyModel,
        length: int,
        tracker: PhaseTracker,
        cohorts: dict[int, list[tuple[EventCounts, float, int]]],
        measured_instructions: int,
    ) -> SimulationResult:
        """Stratified ratio extrapolation over the measurement cohorts.

        Each detailed interval's events and cycles scale by that cohort's
        own factor — (periods the measurement covered / total covered
        periods) times the represented-length ratio — so a measurement
        reused for many periods contributes their share, and a drifting
        phase's early samples stay confined to the periods they stood
        for.  Reduces to :meth:`_extrapolate` when every period is its own
        cohort of identical size.
        """
        covered = sum(
            sum(tracker.coverage(phase)) for phase in cohorts
        )
        result = machine.result
        scaled_events = EventCounts()
        total_cycles = 0.0
        for phase, measurements in cohorts.items():
            counts = tracker.coverage(phase)
            for count, (events, cycles, instructions) in zip(
                counts, measurements
            ):
                factor = (count / covered) * length / instructions
                for event, value in events.items():
                    scaled_events.add(event, value * factor)
                total_cycles += cycles * factor

        result.instructions = length
        result.cycles = max(total_cycles, 1.0)
        self._scale_result_counters(machine, length / measured_instructions)
        result.energy = model.evaluate(scaled_events, result.cycles)
        result.events = scaled_events.as_dict()
        return result

    def _measure_interval(
        self,
        machine: _Machine,
        warmup_policy: WarmupPolicy,
        stream: InstructionStream,
        warmup: int,
        detail: int,
        cpi: float,
    ) -> tuple[EventCounts, int, float]:
        """Warm, then simulate one detailed interval of ``detail > 0``.

        The warmup window feeds a fresh selector that the detailed
        interval continues, so segment boundaries flow from warmup into
        measurement.  Returns the interval's ``(events, instructions,
        cycles)`` delta.
        """
        selector = TraceSelector()
        if warmup:
            warmup_policy.warm(stream, warmup, selector, cpi)
        before = self._interval_snapshot(machine)
        self._execute_segments(
            machine, segment_stream(stream, detail, selector)
        )
        after = self._interval_snapshot(machine)
        return self._interval_delta(before, after)

    @staticmethod
    def _interval_snapshot(machine: _Machine) -> tuple:
        """Counter snapshot at an interval boundary (events drained)."""
        machine.core.drain_events()
        h = machine.hierarchy.events
        return (
            machine.result.instructions,
            machine.core.cycles,
            machine.events.as_dict(),
            (h.l1i_accesses, h.l1d_accesses, h.l1d_writes,
             h.l2_accesses, h.memory_accesses),
        )

    @staticmethod
    def _interval_delta(before: tuple, after: tuple):
        """Event/instruction/cycle deltas between two snapshots.

        Folds the hierarchy counters into the same event names
        :meth:`_finalize` uses, plus the per-interval ``core_cycle``
        charge, so the delta is directly evaluable by the energy model.
        """
        instr0, cycles0, events0, h0 = before
        instr1, cycles1, events1, h1 = after
        delta = EventCounts()
        for event, count in events1.items():
            delta.add(event, count - events0.get(event, 0.0))
        delta.add("l1i_read", h1[0] - h0[0])
        delta.add("l1d_read", (h1[1] - h1[2]) - (h0[1] - h0[2]))
        delta.add("l1d_write", h1[2] - h0[2])
        delta.add("l2_access", h1[3] - h0[3])
        delta.add("memory_access", h1[4] - h0[4])
        cycles = cycles1 - cycles0
        delta.add("core_cycle", cycles)
        return delta, instr1 - instr0, cycles

    def _extrapolate(
        self,
        machine: _Machine,
        model: EnergyModel,
        length: int,
        measured_instructions: int,
        measured_cycles: float,
        aggregate: EventCounts,
    ) -> SimulationResult:
        """Scale the measured intervals up to the represented stream length.

        Ratio extrapolation: every extensive counter scales by
        ``length / measured_instructions``, cycles likewise, and energy is
        re-evaluated on the scaled events so leakage (∝ cycles) and the
        component breakdown stay self-consistent.  Intensive metrics (IPC,
        EPI, coverage, CMPW) are therefore exactly the measured ratios.
        """
        result = machine.result
        factor = length / measured_instructions

        scaled_events = EventCounts()
        for event, count in aggregate.items():
            scaled_events.add(event, count * factor)

        result.instructions = length
        result.cycles = max(measured_cycles * factor, 1.0)
        self._scale_result_counters(machine, factor)
        result.energy = model.evaluate(scaled_events, result.cycles)
        result.events = scaled_events.as_dict()
        return result

    @staticmethod
    def _scale_result_counters(machine: _Machine, factor: float) -> None:
        """Ratio-scale the result's integer counters and trace stats.

        Shared by the fixed and adaptive extrapolations.  These counters
        are machine-global (not snapshotted per interval), so the adaptive
        path scales them by the overall measured ratio even though its
        events extrapolate per phase — a documented approximation for the
        diagnostic counts; the accuracy-bearing metrics (cycles, events,
        energy) never go through here.
        """
        result = machine.result
        scale = lambda v: round(v * factor)  # noqa: E731
        result.uops_cold = scale(result.uops_cold)
        result.uops_hot = scale(result.uops_hot)
        result.uops_wasted = scale(result.uops_wasted)
        result.hot_instructions = scale(result.hot_instructions)
        result.cold_branch_mispredicts = scale(result.cold_branch_mispredicts)
        result.cold_branch_predictions = scale(result.cold_branch_predictions)
        tpred = machine.tpred
        if tpred is not None:
            result.trace_predictions = scale(tpred.stats.predictions)
            result.trace_mispredictions = scale(tpred.stats.mispredictions)

        stats = result.trace_stats
        stats.segments = scale(stats.segments)
        stats.traces_constructed = scale(stats.traces_constructed)
        stats.traces_optimized = scale(stats.traces_optimized)
        stats.optimizations_dropped = scale(stats.optimizations_dropped)
        stats.hot_executions = scale(stats.hot_executions)
        stats.optimized_executions = scale(stats.optimized_executions)
        stats.trace_mispredicts = scale(stats.trace_mispredicts)
        stats.tcache_miss_on_predict = scale(stats.tcache_miss_on_predict)
        stats.weighted_uop_reduction *= factor
        stats.weighted_dep_reduction *= factor
        stats.optimized_exec_counts = {
            tid: scale(count)
            for tid, count in stats.optimized_exec_counts.items()
        }

    # -- hot pipeline ----------------------------------------------------------

    def _execute_hot(
        self,
        core: TimingCore,
        hierarchy: MemoryHierarchy,
        result: SimulationResult,
        trace: Trace,
        segment: TraceSegment,
    ) -> None:
        """Execute a correctly predicted trace on the hot pipeline.

        The caller has already selected the hot execution profile, and
        accumulates the per-execution events (frame read, virtual-rename
        discount) into its batched segment-loop counters.
        """
        uops = trace.uops
        # Per-trace execution plan, compiled on first hot execution: group
        # boundaries and uop rows are static per trace (uops never change
        # once installed; optimization installs a new Trace).
        plan = trace._hot_plan
        if plan is None:
            plan = compile_hot_specialized(
                [compile_uop_row(uop) for uop in uops],
                self.config.fetch.trace_uops,
            )
            trace._hot_plan = plan
        run_hot_compiled(
            core, plan, segment.instructions,
            hierarchy.load_latency, hierarchy.store_access,
        )
        trace.exec_count += 1
        stats = result.trace_stats
        stats.hot_executions += 1
        stats.weighted_uop_reduction += trace.uop_reduction
        stats.weighted_dep_reduction += trace.dependency_reduction
        if trace.optimized:
            stats.optimized_executions += 1
            # Keyed by TID (stable identity): id() can be reused by the
            # allocator after an evicted trace is collected.
            key = trace.tid
            stats.optimized_exec_counts[key] = (
                stats.optimized_exec_counts.get(key, 0) + 1
            )
        result.uops_hot += len(uops)
        result.hot_instructions += segment.num_instructions

    def _trace_mispredict(
        self,
        core: TimingCore,
        events: EventCounts,
        result: SimulationResult,
        trace: Trace,
        segment: TraceSegment,
    ) -> None:
        """Charge a flushed wrong-trace execution; the segment re-runs cold.

        The wasted work is the prefix of the wrong trace up to the first
        failing assert (first diverging branch direction), or a couple of
        uops when even the start address was wrong.
        """
        wasted = self._wasted_uops(trace, segment)
        events.add("tcache_read", TRACE_CAPACITY_UOPS)
        events.add("trace_flush")
        # Flushed uops consumed the full front/execute path up to the
        # flush: rename, window insert+wakeup, ROB allocation, register
        # reads and execution.  They never commit (no rob_commit) and
        # their results are discarded (no regfile_write).
        events.add("rename_uop", wasted)
        events.add("window_insert", wasted)
        events.add("window_wakeup", wasted)
        events.add("issue_uop", wasted)
        events.add("rob_write", wasted)
        events.add("regfile_read", wasted)
        events.add("exec_int", wasted)
        result.uops_wasted += wasted
        # Recovery: the failing assert resolves a full pipeline depth after
        # fetch (like a branch), then atomic-state restoration adds the
        # trace-flush extra, plus the fetch slots the wasted uops consumed.
        core.stall_fetch(
            self.config.core.front_depth
            + self.config.core.trace_flush_extra
            + trace_fetch_cycles(wasted, self.config.fetch)
        )

    @staticmethod
    def _wasted_uops(trace: Trace, segment: TraceSegment) -> int:
        if trace.tid.start != segment.tid.start:
            return min(4, trace.num_uops)
        diverge = 0
        limit = min(trace.tid.num_branches, segment.tid.num_branches)
        while diverge < limit and trace.tid.direction(diverge) == segment.tid.direction(diverge):
            diverge += 1
        fraction = (diverge + 1) / (trace.tid.num_branches + 1)
        return max(1, min(trace.num_uops, round(trace.num_uops * fraction)))

    # -- cold pipeline -------------------------------------------------------------

    def _execute_cold(
        self,
        core: TimingCore,
        hierarchy: MemoryHierarchy,
        bpred: BranchPredictor,
        result: SimulationResult,
        segment: TraceSegment,
        cold_plans: dict[TraceId, tuple],
    ) -> tuple[int, int, int]:
        """Execute a segment on the cold pipeline (icache fetch + decode).

        The segment replays its cold plan (:func:`compile_cold_plan`),
        cached per TID for complete segments.  Returns
        ``(n_groups, n_cti, n_misp)`` — the plan-level event totals the
        segment loop folds into its batched counters.
        """
        instructions = segment.instructions
        complete_segment = segment.complete
        plan = cold_plans.get(segment.tid) if complete_segment else None
        if plan is None:
            plan = compile_cold_specialized(instructions, self.config.fetch)
            if complete_segment:
                cold_plans[segment.tid] = plan
        n_misp = run_cold_compiled(
            core,
            plan,
            instructions,
            hierarchy.fetch_latency,
            hierarchy.load_latency,
            hierarchy.store_access,
            bpred.predict_and_train,
        )
        groups, n_uops, _n_reads, _n_writes, _fu_counts, n_cti = plan
        n_groups = len(groups)
        result.uops_cold += n_uops
        if n_cti:
            result.cold_branch_predictions += n_cti
        if n_misp:
            result.cold_branch_mispredicts += n_misp
        return n_groups, n_cti, n_misp

    # -- finalisation ---------------------------------------------------------------

    def _finalize(
        self,
        result: SimulationResult,
        hierarchy: MemoryHierarchy,
        tpred: TracePredictor | None,
        events: EventCounts,
    ) -> None:
        """Merge hierarchy events, evaluate energy, snapshot statistics."""
        h = hierarchy.events
        events.add("l1i_read", h.l1i_accesses)
        events.add("l1d_read", h.l1d_accesses - h.l1d_writes)
        events.add("l1d_write", h.l1d_writes)
        events.add("l2_access", h.l2_accesses)
        events.add("memory_access", h.memory_accesses)
        events.add("core_cycle", result.cycles)

        if tpred is not None:
            result.trace_predictions = tpred.stats.predictions
            result.trace_mispredictions = tpred.stats.mispredictions

        result.energy = self._energy_model().evaluate(events, result.cycles)
        result.events = events.as_dict()
