"""Executable traces: decoded, atomic uop sequences stored in the trace cache.

A :class:`Trace` is the hot pipeline's unit of work — an *abstract
instruction* in the paper's sense (§3.1): it either commits entirely or is
flushed entirely.  Traces are built from the decoded uops of a committed
trace-shaped segment (:func:`build_trace`), and may later be replaced by an
optimized version with fewer uops and a shorter dependence critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TraceError
from repro.isa.instruction import DynamicInstruction, Uop
from repro.isa.opcodes import UopKind
from repro.isa.registers import REG_NONE
from repro.trace.tid import TraceId

#: Selection capacity: traces are constructed into frames of at most 64 uops.
TRACE_CAPACITY_UOPS = 64


@dataclass(slots=True)
class Trace:
    """A decoded (possibly optimized) atomic trace.

    ``uops`` carry ``origin`` indices into the trace's instruction span so
    the hot pipeline can bind memory uops to the current dynamic execution's
    effective addresses.  ``original_uop_count`` is preserved across
    optimization for the uop-reduction statistics (Figure 4.9).
    """

    tid: TraceId
    uops: list[Uop]
    num_instructions: int
    original_uop_count: int
    optimized: bool = False
    optimization_level: int = 0
    exec_count: int = 0
    original_critical_path: int = 0
    critical_path: int = 0
    #: Trace-local definitions the hot pipeline can satisfy from virtual
    #: registers (set by the optimizer's renaming pass; energy discount).
    virtual_renames: int = 0
    #: Hot-pipeline execution plan, compiled lazily on first hot execution
    #: and replayed on every later one (uops are immutable once the trace
    #: is installed; the optimizer installs a *new* Trace, resetting this).
    _hot_plan: tuple | None = field(default=None, repr=False, compare=False)
    #: Specialized twin (see ``repro.pipeline.specialize``): the generated
    #: replay function + probe plan, compiled lazily when
    #: the owning machine runs the compiled backend.
    _hot_plan_compiled: tuple | None = field(
        default=None, repr=False, compare=False
    )
    #: Compiled retire-time branch-training plan (see
    #: ``repro.pipeline.segment_batch.compile_hot_training``), cached on
    #: first hot execution: per-TID path identity makes the trace's CTI
    #: outcomes static, so per-CTI training folds into one batched replay.
    _train_plan: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def num_uops(self) -> int:
        """Current uop count (shrinks under optimization)."""
        return len(self.uops)

    @property
    def uop_reduction(self) -> float:
        """Fraction of original uops eliminated by optimization."""
        if self.original_uop_count == 0:
            return 0.0
        return 1.0 - self.num_uops / self.original_uop_count

    @property
    def dependency_reduction(self) -> float:
        """Fractional shortening of the dependence critical path."""
        if self.original_critical_path == 0:
            return 0.0
        return 1.0 - self.critical_path / self.original_critical_path

    def validate(self) -> None:
        """Check structural trace invariants; raise ``TraceError`` if broken."""
        if not self.uops:
            raise TraceError(f"{self.tid}: empty trace")
        if len(self.uops) > TRACE_CAPACITY_UOPS:
            raise TraceError(
                f"{self.tid}: {len(self.uops)} uops exceeds the "
                f"{TRACE_CAPACITY_UOPS}-uop frame capacity"
            )
        for uop in self.uops:
            if not 0 <= uop.origin < self.num_instructions:
                raise TraceError(
                    f"{self.tid}: uop origin {uop.origin} outside "
                    f"[0, {self.num_instructions})"
                )


def asap_levels(uops: list[Uop]) -> list[int]:
    """Latency-weighted earliest-start level of each uop (true RAW only).

    Handles optimizer-packed uops: all of ``sources()`` (including
    ``extra_srcs``) gate the start, and both destinations become ready
    together at start + latency.
    """
    ready: dict[int, int] = {}
    levels: list[int] = []
    for uop in uops:
        start = 0
        for src in uop.sources():
            when = ready.get(src, 0)
            if when > start:
                start = when
        levels.append(start)
        finish = start + uop.latency
        for dest in uop.destinations():
            ready[dest] = finish
    return levels


def critical_path_length(uops: list[Uop]) -> int:
    """Length (in latency-weighted uops) of the longest dependence chain.

    Only true register data dependences count; this is the quantity whose
    reduction Figure 4.9 reports alongside uop reduction.
    """
    if not uops:
        return 0
    return max(
        level + uop.latency for level, uop in zip(asap_levels(uops), uops)
    )


def build_trace(
    tid: TraceId, instructions: list[DynamicInstruction]
) -> Trace:
    """Construct an executable trace from a committed segment's decoded uops.

    Copies each instruction's decode template and stamps the ``origin``
    index.  This is the work the trace constructor performs once per hot
    TID, after which every hot execution reuses the stored decode results —
    the paper's "container for reuse of decoding results" (§2.1).
    """
    if not instructions:
        raise TraceError(f"{tid}: cannot build a trace from zero instructions")
    uops: list[Uop] = []
    for index, dyn in enumerate(instructions):
        for template in dyn.instr.uops:
            uop = template.copy()
            uop.origin = index
            uops.append(uop)
    if len(uops) > TRACE_CAPACITY_UOPS:
        raise TraceError(
            f"{tid}: segment decodes to {len(uops)} uops, beyond the "
            f"{TRACE_CAPACITY_UOPS}-uop frame"
        )
    path = critical_path_length(uops)
    trace = Trace(
        tid=tid,
        uops=uops,
        num_instructions=len(instructions),
        original_uop_count=len(uops),
        original_critical_path=path,
        critical_path=path,
    )
    trace.validate()
    return trace
