"""Sensitivity: trace-cache capacity vs. coverage.

§4.2: "Coverage ... represents the quality of the trace prediction,
selection and filtering mechanisms *with respect to the trace-cache size*
and the benchmark characteristics."  We sweep the trace cache from a
single-frame toy size up to the nominal 16K uops and check that coverage
grows with capacity and saturates.  Note the saturation point reflects
our scaled-down synthetic working sets (a few hundred hot-trace uops per
application); the paper's 30-100M-instruction traces would keep growing
further out.
"""

import dataclasses

from repro.core.simulator import ParrotSimulator
from repro.experiments.aggregate import arithmetic_mean
from repro.experiments.engine import Scale
from repro.models.configs import model_ton
from repro.workloads.suite import benchmark_suite

SIZES = (64, 256, 16 * 1024)


def _sweep():
    scale = Scale.from_environment()
    apps = benchmark_suite(max_apps=min(scale.apps or 8, 8))
    length = scale.length
    rows = {}
    for size in SIZES:
        config = dataclasses.replace(model_ton(), tcache_uops=size)
        results = [
            ParrotSimulator(config).simulate(app, length=length)
            for app in apps
        ]
        rows[size] = {
            "coverage": arithmetic_mean([r.coverage for r in results]),
            "evictions": sum(
                r.events.get("tcache_write", 0) for r in results
            ),
        }
    return rows


def test_ablation_tcache_size(benchmark, record_output):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = ["Sensitivity: trace-cache capacity (TON)"]
    for size, row in rows.items():
        lines.append(
            f"  {size:6d} uops  coverage={row['coverage']:.3f}"
        )
    record_output("ablation_tcache_size", "\n".join(lines))

    small, nominal, big = (rows[s]["coverage"] for s in SIZES)
    # Coverage is monotone in capacity...
    assert small <= nominal + 0.02
    assert nominal <= big + 0.02
    # ...and saturates: the last 4x buys far less than the first 8x.
    assert (big - nominal) <= (nominal - small) + 0.05
