"""Spans around the simulator's layers, recorded from outside the program.

A traced run patches public entry points of each ``repro`` module at the
place the simulator resolves them at call time: module functions that
``repro.core.simulator`` calls by global name, and methods of classes the
simulator instantiates per run (patched before any machine is built).
Each call becomes a span.  A span's *self* time is its duration minus the
time covered by the traced calls made inside it, so the self times of one
operation add up to at most the operation's root span.

Calls made once per segment or per memory access are too many to keep one
record each, so those names are only aggregated per (run, name): count,
total time and self time.  Coarser calls also keep an individual record
(name, start, end, parent, run, self).  Everything stays in memory until
:meth:`Tracer.dump` writes it out.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: Patch targets: (module, class or None, attribute, span name, keep).
#: ``keep`` records each call individually; the rest are aggregated only.
TARGETS = (
    ("repro.workloads.stream", "InstructionStream", "take_batch", "walk", False),
    ("repro.workloads.stream", "InstructionStream", "skip", "skip", True),
    ("repro.workloads.tracefile", None, "compile_artifact", "artifact_compile", True),
    ("repro.workloads.tracefile", "ArtifactCache", "load", "artifact_load", True),
    ("repro.workloads.tracefile", "TraceArtifact", "segments", "segments", True),
    ("repro.core.simulator", None, "segment_stream", "select", False),
    ("repro.core.simulator", None, "run_hot_compiled", "hot_replay", False),
    ("repro.core.simulator", None, "run_cold_compiled", "cold_replay", False),
    ("repro.core.simulator", None, "run_hot_training", "train", False),
    ("repro.core.simulator", None, "compile_hot_specialized", "plan_compile", False),
    ("repro.core.simulator", None, "compile_cold_specialized", "plan_compile", False),
    ("repro.core.simulator", "ParrotSimulator", "simulate", "simulate", True),
    ("repro.memory.hierarchy", "MemoryHierarchy", "load_latency", "load", False),
    ("repro.memory.hierarchy", "MemoryHierarchy", "store_access", "load", False),
    ("repro.memory.hierarchy", "MemoryHierarchy", "prewarm", "prewarm", True),
    ("repro.memory.hierarchy", "MemoryHierarchy", "restore_warm_state", "prewarm", True),
    ("repro.frontend.trace_predictor", "TracePredictor", "predict", "tpred", False),
    ("repro.frontend.trace_predictor", "TracePredictor", "train", "tpred", False),
    ("repro.core.background", "BackgroundProcessor", "after_commit", "background", False),
    ("repro.core.background", "BackgroundProcessor", "after_hot_execution", "background", False),
    ("repro.optimizer.pipeline", "TraceOptimizer", "optimize", "optimize", True),
    ("repro.power.energy", "EnergyModel", "evaluate", "evaluate", True),
    ("repro.sampling.phases", "PhaseClassifier", "classify", "classify", True),
    ("repro.sampling.warmup", "WarmupPolicy", "warm", "warm", True),
    ("repro.sampling.warmup", "WarmupPolicy", "functional_skip", "warm", True),
    ("repro.experiments.engine", "ResultStore", "load", "store_load", True),
    ("repro.experiments.engine", "ResultStore", "store", "store_write", True),
    ("repro.experiments.engine", "ResultStore", "merge_from", "merge", True),
    ("repro.experiments.engine", "ExperimentEngine", "run", "engine_run", True),
    ("repro.serve.service", "ReproService", "lookup", "lookup", True),
)

#: Generators: each ``next()`` is one span and each yielded item counts.
GENERATORS = {"select"}

#: Span names whose non-None results are counted as hits.
COUNT_RESULTS = {"artifact_load"}

#: Per-layer time metrics: metric -> (span name, "self" or "total").
#: Phase-level spans report their whole duration; the rest report self time.
LAYER_TIMES = {
    "walk_s": ("walk", "self"),
    "skip_s": ("skip", "self"),
    "artifact_compile_s": ("artifact_compile", "total"),
    "segments_s": ("segments", "total"),
    "select_s": ("select", "self"),
    "hot_replay_s": ("hot_replay", "self"),
    "cold_replay_s": ("cold_replay", "self"),
    "train_s": ("train", "self"),
    "plan_compile_s": ("plan_compile", "self"),
    "load_s": ("load", "self"),
    "prewarm_s": ("prewarm", "self"),
    "tpred_s": ("tpred", "self"),
    "background_s": ("background", "self"),
    "simulate_self_s": ("simulate", "self"),
    "optimize_s": ("optimize", "self"),
    "evaluate_s": ("evaluate", "self"),
    "classify_s": ("classify", "self"),
    "warm_s": ("warm", "self"),
    "store_load_s": ("store_load", "self"),
    "store_write_s": ("store_write", "self"),
    "merge_s": ("merge", "total"),
    "engine_run_s": ("engine_run", "total"),
    "lookup_s": ("lookup", "self"),
}

#: Per-layer counts: metric -> span name whose calls are counted.
LAYER_CALLS = {
    "hot_calls": "hot_replay",
    "cold_calls": "cold_replay",
    "loads": "load",
    "traces_optimized": "optimize",
    "store_loads": "store_load",
    "artifact_compiles": "artifact_compile",
}

#: Per-layer counts of generator items or non-None results.
LAYER_ITEMS = {
    "segments": "select",
    "artifact_hits": "artifact_load",
}


class Tracer:
    """In-memory span recorder; :meth:`install` patches the layers."""

    def __init__(self, run: str = "-"):
        self.run = run
        #: Kept spans: [name, start, end, parent index, run, self].
        self.spans: list[list] = []
        #: (run, name) -> [count, total seconds, self seconds].
        self.groups: dict[tuple[str, str], list] = {}
        #: name -> counted generator items or non-None results.
        self.items: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, keep: bool) -> tuple[list, list | None, float]:
        stack = self._stack
        parent = stack[-1] if stack else None
        inherited = parent[1] if parent is not None else None
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, inherited, self.run, 0.0])
            frame = [0.0, index, True]
        else:
            frame = [0.0, inherited, False]
        stack.append(frame)
        return frame, parent, perf_counter()

    def _close(self, name: str, frame: list, parent: list | None,
               start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - start
        own = duration - frame[0]
        if parent is not None:
            parent[0] += duration
        key = (self.run, name)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = [0, 0.0, 0.0]
        group[0] += 1
        group[1] += duration
        group[2] += own
        if frame[2]:
            record = self.spans[frame[1]]
            record[1] = start
            record[2] = end
            record[5] = own

    @contextmanager
    def span(self, name: str, run: str | None = None):
        """A span around the benchmark's own code (an operation's root)."""
        previous = self.run
        if run is not None:
            self.run = run
        frame, parent, start = self._open(name, True)
        try:
            yield
        finally:
            self._close(name, frame, parent, start)
            self.run = previous

    def wrap(self, name: str, fn, keep: bool = True):
        """``fn`` recording one span per call."""
        count_results = name in COUNT_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent, start = self._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, parent, start)
            if count_results and result is not None:
                self.items[name] = self.items.get(name, 0) + 1
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, keep: bool = False):
        """Generator function ``fn`` recording one span per ``next()``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self.wrap(name, fn(*args, **kwargs).__next__, keep)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                self.items[name] = self.items.get(name, 0) + 1
                yield item

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every target in :data:`TARGETS` (undone by :meth:`remove`)."""
        for module_name, owner_name, attr, name, keep in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr)
            if name in GENERATORS:
                patched = self.wrap_generator(name, original, keep)
            else:
                patched = self.wrap(name, original, keep)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Undo :meth:`install`."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def merge(self, payload: dict) -> None:
        """Fold in a trace written by :meth:`dump` in another process."""
        offset = len(self.spans)
        for name, start, end, parent, run, own in payload["spans"]:
            parent = None if parent is None else parent + offset
            self.spans.append([name, start, end, parent, run, own])
        for run, name, count, total, own in payload["groups"]:
            group = self.groups.setdefault((run, name), [0, 0.0, 0.0])
            group[0] += count
            group[1] += total
            group[2] += own
        for name, count in payload["items"].items():
            self.items[name] = self.items.get(name, 0) + count

    def payload(self) -> dict:
        """Everything recorded, as JSON-serialisable data."""
        return {
            "spans": self.spans,
            "groups": [
                [run, name, *values]
                for (run, name), values in self.groups.items()
            ],
            "items": self.items,
        }

    def dump(self, path: str | Path, **extra) -> None:
        """Write :meth:`payload` (plus ``extra`` fields) as JSON."""
        Path(path).write_text(json.dumps({**extra, **self.payload()}))

    def layer_metrics(self) -> dict[str, float]:
        """The span-derived per-layer metrics, summed over every run."""
        count: dict[str, int] = {}
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for (_run, name), (calls, duration, self_time) in self.groups.items():
            count[name] = count.get(name, 0) + calls
            total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + self_time
        metrics: dict[str, float] = {}
        for metric, (name, kind) in LAYER_TIMES.items():
            source = own if kind == "self" else total
            metrics[metric] = source.get(name, 0.0)
        for metric, name in LAYER_CALLS.items():
            metrics[metric] = count.get(name, 0)
        for metric, name in LAYER_ITEMS.items():
            metrics[metric] = self.items.get(name, 0)
        return metrics
