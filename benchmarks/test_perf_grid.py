"""Benchmark: cold-store grid throughput (cells per second).

The grid benchmark times what ``repro figure`` actually pays: every
(application x model) cell of a figure-shaped grid, evaluated cold — no
persistent result store, a fresh artifact cache per round — through the
chunk-scheduled engine.

Scale follows the ``REPRO_BENCH_*`` knobs: ``REPRO_BENCH_LENGTH``
(default 20000), ``REPRO_BENCH_APPS`` (default 3 here — the benchmark
re-simulates the grid every round, so it keeps its own smaller roster
default), ``REPRO_BENCH_JOBS`` (default: all cores) and
``REPRO_BENCH_BACKEND`` (execution backend for the engine grid:
``scalar`` or ``compiled``; default scalar).  Like the
hot-path benchmark this is a trajectory, not a gate: throughput lands in
``benchmark.extra_info`` and the perf-smoke job archives the JSON as
``BENCH_grid.json``.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from repro.experiments.engine import (
    ExperimentEngine,
    default_jobs,
    parse_apps,
    resolve_run_options,
)
from repro.models.configs import MODEL_NAMES
from repro.workloads.suite import benchmark_suite

LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", "20000"))
APPS = parse_apps(os.environ.get("REPRO_BENCH_APPS", "3"))
JOBS = default_jobs()  # honours REPRO_BENCH_JOBS, then the affinity mask
BACKEND = resolve_run_options().backend  # honours REPRO_BENCH_BACKEND

TASKS = [
    (model, app.name)
    for model in MODEL_NAMES
    for app in benchmark_suite(max_apps=APPS)
]


def _cold_grid(workdir: str) -> dict:
    """One cold evaluation of the full grid (store off, artifacts fresh)."""
    engine = ExperimentEngine(
        LENGTH, jobs=JOBS, backend=BACKEND,
        artifact_root=os.path.join(workdir, "artifacts"),
    )
    return engine.run(TASKS)


def test_cold_grid_throughput(benchmark):
    def setup():
        workdir = tempfile.mkdtemp(prefix="repro-grid-bench-")
        return (workdir,), {}

    def run(workdir):
        try:
            return _cold_grid(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    results = benchmark.pedantic(run, setup=setup, rounds=3, warmup_rounds=1)

    seconds = benchmark.stats.stats.mean
    cells = len(TASKS)
    benchmark.extra_info["cells"] = cells
    benchmark.extra_info["jobs"] = JOBS
    benchmark.extra_info["length"] = LENGTH
    benchmark.extra_info["backend"] = BACKEND.value
    benchmark.extra_info["cells_per_second"] = round(cells / seconds, 2)

    assert len(results) == cells
    assert all(result.cycles > 0 for result in results.values())
