"""Benchmark: the adaptive-sampling speedup/error frontier.

Times one full build of the differential accuracy frontier — every
golden pair at full detail, under fixed-interval sampling and under the
tuned adaptive regime, on both execution backends, over compiled
artifacts — and archives every :meth:`PairAccuracy.to_row` row in
``benchmark.extra_info``.  The perf-smoke job folds this into
``BENCH_grid.json``, so the repository keeps a dated record of where
each (speedup, IPC error, EPI error) point sits as the sampler evolves.

The hard gates live in ``tests/test_sampling_accuracy.py``; like the
other benchmarks this is a trajectory.  Scale follows
``REPRO_BENCH_SAMPLING_LENGTH`` (default 200000 — the acceptance
length; note the tuned adaptive period is 15000 instructions, so
lengths below a few periods degrade to fixed mode and the frontier
stops being meaningful).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import warnings

from repro.errors import SamplingWarning
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling.accuracy import (
    GOLDEN_PAIRS,
    AccuracyHarness,
    aggregate_speedup,
)
from repro.sampling.config import SamplingConfig

LENGTH = int(os.environ.get("REPRO_BENCH_SAMPLING_LENGTH", "200000"))

BACKENDS = (ExecutionBackend.SCALAR, ExecutionBackend.COMPILED)


def _frontier(root: str) -> dict:
    """One full frontier build: fixed + adaptive per backend."""
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SamplingWarning)
        for backend in BACKENDS:
            harness = AccuracyHarness(
                length=LENGTH, backend=backend,
                source="artifact", root=root,
            )
            results[backend] = {
                "fixed": harness.sweep(SamplingConfig()),
                "adaptive": harness.sweep(SamplingConfig.adaptive()),
            }
    return results


def test_sampling_frontier(benchmark):
    def setup():
        return (tempfile.mkdtemp(prefix="repro-sampling-bench-"),), {}

    def run(root):
        try:
            return _frontier(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    results = benchmark.pedantic(run, setup=setup, rounds=1)

    rows = [
        result.to_row()
        for backend in BACKENDS
        for mode in ("fixed", "adaptive")
        for result in results[backend][mode]
    ]
    adaptive = [
        result
        for backend in BACKENDS
        for result in results[backend]["adaptive"]
    ]
    benchmark.extra_info["length"] = LENGTH
    benchmark.extra_info["pairs"] = [f"{a}:{m}" for a, m in GOLDEN_PAIRS]
    benchmark.extra_info["frontier"] = rows
    benchmark.extra_info["adaptive_speedup"] = round(
        aggregate_speedup(adaptive), 2
    )
    for backend in BACKENDS:
        benchmark.extra_info[f"adaptive_speedup_{backend.value}"] = round(
            aggregate_speedup(results[backend]["adaptive"]), 2
        )
    benchmark.extra_info["worst_adaptive_ipc_error"] = round(
        max(r.ipc_error for r in adaptive), 5
    )
    benchmark.extra_info["worst_adaptive_epi_error"] = round(
        max(r.epi_error for r in adaptive), 5
    )

    assert len(rows) == 2 * 2 * len(GOLDEN_PAIRS)
    assert all(r.estimate.mode == "adaptive" for r in adaptive)
