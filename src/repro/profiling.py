"""Profiling harness: per-phase time attribution for a single simulation.

``repro profile <app> <model>`` runs one simulation under :mod:`cProfile`
and buckets every function's *self* time into the simulator's logical
phases (stream walking, trace selection, hot/cold execution, memory,
background trace unit, energy accounting).  Self times sum exactly to the
profiled total, so the breakdown shows where a change actually lands —
the honesty check behind every hot-path optimization in this repo.

The raw :mod:`pstats` dump is also written to disk so a hotspot can be
drilled into with ``python -m pstats`` or snakeviz-alikes without
re-running the simulation.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field

from repro.core.simulator import ParrotSimulator
from repro.models.configs import model_config
from repro.workloads.suite import application

#: Ordered (phase, path fragments) buckets; first match wins.  Paths are
#: matched against the profiled function's source file with ``/`` already
#: normalised, so the table reads like the package layout.
_PHASE_BUCKETS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("walk", ("workloads/stream", "workloads/behaviors", "random.py")),
    ("select", ("trace/selection", "trace/tid")),
    # The batched per-segment bookkeeping (predictor-training plans,
    # lazy-LRU flushes) gets its own row so the shared-overhead share
    # the batching attacked stays visible in `repro profile`.
    ("segment-batch", ("pipeline/segment_batch",)),
    ("execute", ("pipeline/core", "pipeline/resources")),
    ("memory", ("memory/",)),
    ("frontend", ("frontend/",)),
    ("background", (
        "core/background", "trace/construction", "trace/optimizer",
        "trace/filters", "trace/cache", "trace/trace",
    )),
    ("energy", ("power/",)),
    ("orchestrate", ("core/simulator",)),
)

_PHASE_ORDER = tuple(name for name, _ in _PHASE_BUCKETS) + ("other",)


def classify_function(filename: str) -> str:
    """Map a profiled function's source file to its simulator phase."""
    path = filename.replace("\\", "/")
    for phase, fragments in _PHASE_BUCKETS:
        for fragment in fragments:
            if fragment in path:
                return phase
    return "other"


@dataclass
class ProfileReport:
    """One profiled simulation: result, timings and phase attribution."""

    app_name: str
    model_name: str
    length: int
    elapsed: float                  #: wall-clock seconds under the profiler
    result: object                  #: the run's SimulationResult
    stats: pstats.Stats
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def instructions_per_second(self) -> float:
        """Profiled throughput (cProfile overhead included — use the
        benchmark harness for headline numbers)."""
        if self.elapsed <= 0:
            return 0.0
        return self.length / self.elapsed

    def format(self, top: int = 10) -> str:
        """Human-readable per-phase breakdown plus the top self-time hits."""
        lines = [
            f"{self.app_name} on {self.model_name}: {self.length} "
            f"instructions in {self.elapsed:.3f}s "
            f"({self.instructions_per_second:,.0f} instr/s under cProfile)",
            "",
            f"  {'phase':17}{'seconds':>10}{'share':>9}",
        ]
        total = sum(self.phase_seconds.values()) or 1.0
        for phase in _PHASE_ORDER:
            seconds = self.phase_seconds.get(phase, 0.0)
            if seconds == 0.0 and phase != "other":
                continue
            lines.append(
                f"  {phase:17}{seconds:>10.3f}{seconds / total:>8.1%}"
            )
        lines.append(f"  {'total':17}{total:>10.3f}{1.0:>8.1%}")
        lines.append("")
        lines.append(f"top {top} functions by self time:")
        buffer = io.StringIO()
        previous_stream = self.stats.stream
        self.stats.stream = buffer
        try:
            self.stats.sort_stats("tottime").print_stats(top)
        finally:
            self.stats.stream = previous_stream
        # Keep only the tabular part of pstats' report.
        rows = buffer.getvalue().splitlines()
        header_idx = next(
            (i for i, row in enumerate(rows) if "ncalls" in row), 0
        )
        lines.extend("  " + row for row in rows[header_idx:] if row.strip())
        return "\n".join(lines)


def attribute_phases(stats: pstats.Stats) -> dict[str, float]:
    """Sum per-function *self* time into simulator phases.

    Self (``tottime``) rather than cumulative time is used so the phases
    partition the total exactly — a function's time is charged to where
    the code lives, not to everything above it on the stack.
    """
    phases: dict[str, float] = {}
    for (filename, _lineno, _name), row in stats.stats.items():
        tottime = row[2]
        if not tottime:
            continue
        phase = classify_function(filename)
        phases[phase] = phases.get(phase, 0.0) + tottime
    return phases


def profile_run(
    app_name: str,
    model_name: str,
    length: int = 20_000,
) -> ProfileReport:
    """Profile one simulation and attribute its time to phases.

    The simulator is constructed outside the profiled region (model
    configuration is one-time setup, not hot-path), so the report isolates
    the per-run cost the optimization work targets.  Hot and cold replay
    both land under ``execute``.
    """
    app = application(app_name)
    simulator = ParrotSimulator(model_config(model_name))
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = simulator.simulate(app, length=length)
    profiler.disable()
    elapsed = time.perf_counter() - start
    stats = pstats.Stats(profiler)
    return ProfileReport(
        app_name=app.name,
        model_name=model_name,
        length=length,
        elapsed=elapsed,
        result=result,
        stats=stats,
        phase_seconds=attribute_phases(stats),
    )
