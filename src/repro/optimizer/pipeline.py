"""The dynamic optimizer unit: pass manager and latency model (§2.4, §3.1).

The optimizer is modelled as the paper describes: a non-pipelined unit that
holds one trace in a simplified ROB-like structure and runs the passes
sequentially, taking on the order of 100 cycles per trace.  The high
blazing threshold guarantees enough reuse that this relaxed design costs
neither performance nor amortised energy.

Pass classes (§2.4):

* **general purpose** — constant propagation, logic simplification,
  dead-code elimination;
* **core-specific** — micro-op fusion, SIMDification, virtual renaming,
  critical-path scheduling.

Either class can be disabled for the ablation studies (the companion-paper
breakdown ``tests/test_ablations.py::test_ablation_passes`` mirrors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OptimizationError
from repro.isa.instruction import Uop
from repro.isa.opcodes import UopKind
from repro.optimizer.asserts import PromotionStats, promote_control
from repro.optimizer.passes import (
    ConstantPropagation,
    CriticalPathScheduling,
    DeadCodeElimination,
    LogicSimplify,
    MicroOpFusion,
    Simdify,
    VirtualRenaming,
)
from repro.trace.trace import Trace, critical_path_length


@dataclass(frozen=True, slots=True)
class OptimizerConfig:
    """What the optimizer is allowed to do, and how long it takes."""

    enable_generic: bool = True
    enable_core_specific: bool = True
    #: Non-pipelined per-trace optimization delay (§3.1: "on the order of
    #: 100 cycles").
    latency_cycles: int = 100

    @property
    def enabled(self) -> bool:
        """True when at least one pass class is active."""
        return self.enable_generic or self.enable_core_specific


@dataclass(slots=True)
class OptimizationReport:
    """What one optimization did to one trace."""

    uops_before: int = 0
    uops_after: int = 0
    critical_path_before: int = 0
    critical_path_after: int = 0
    virtual_renames: int = 0
    pass_applications: dict[str, int] = field(default_factory=dict)
    promotion: PromotionStats | None = None

    @property
    def uop_reduction(self) -> float:
        """Fraction of uops removed."""
        if self.uops_before == 0:
            return 0.0
        return 1.0 - self.uops_after / self.uops_before

    @property
    def dependency_reduction(self) -> float:
        """Fractional critical-path shortening."""
        if self.critical_path_before == 0:
            return 0.0
        return 1.0 - self.critical_path_after / self.critical_path_before


class TraceOptimizer:
    """Optimize blazing traces; returns new traces plus a report."""

    def __init__(self, config: OptimizerConfig | None = None):
        self.config = config or OptimizerConfig()
        self.traces_optimized = 0
        self.total_uops_in = 0
        self.total_uops_out = 0

    def optimize(self, trace: Trace) -> tuple[Trace, OptimizationReport]:
        """Produce the optimized replacement for ``trace``.

        The input trace is not mutated; the returned trace carries the
        same TID and origin mapping so the hot pipeline can bind dynamic
        memory addresses exactly as before.
        """
        if not self.config.enabled:
            raise OptimizationError("optimizer invoked with all passes disabled")
        report = OptimizationReport(
            uops_before=trace.original_uop_count,
            critical_path_before=trace.original_critical_path,
        )

        uops, promotion = promote_control(trace.uops, trace.tid)
        report.promotion = promotion

        renamer = VirtualRenaming()
        passes = []
        if self.config.enable_generic:
            passes += [ConstantPropagation(), LogicSimplify(), DeadCodeElimination()]
        if self.config.enable_core_specific:
            passes += [
                MicroOpFusion(),
                Simdify(),
                DeadCodeElimination(),
                renamer,
                CriticalPathScheduling(),
            ]
        for opt_pass in passes:
            uops = opt_pass.run(uops)
            key = opt_pass.name
            report.pass_applications[key] = (
                report.pass_applications.get(key, 0) + opt_pass.applied
            )
        report.virtual_renames = renamer.virtual_renames

        if not uops:
            # Degenerate but legitimate: every uop was architecturally dead
            # (e.g. a trace of self-moves).  The hardware still needs a
            # committable unit, so the trace shrinks to a single NOP.
            nop = Uop(UopKind.NOP)
            nop.origin = 0
            uops = [nop]

        optimized = Trace(
            tid=trace.tid,
            uops=uops,
            num_instructions=trace.num_instructions,
            original_uop_count=trace.original_uop_count,
            optimized=True,
            optimization_level=2 if self.config.enable_core_specific else 1,
            exec_count=trace.exec_count,
            original_critical_path=trace.original_critical_path,
            critical_path=critical_path_length(uops),
            virtual_renames=renamer.virtual_renames,
        )
        optimized.validate()

        report.uops_after = optimized.num_uops
        report.critical_path_after = optimized.critical_path
        self.traces_optimized += 1
        self.total_uops_in += report.uops_before
        self.total_uops_out += report.uops_after
        return optimized, report
