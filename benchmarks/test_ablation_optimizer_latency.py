"""Sensitivity: optimizer latency (the paper's "relaxed design" claim).

§2.4/§3.1: the optimizer is modelled as a non-pipelined unit taking on the
order of 100 cycles per trace; a sensitivity study (in the companion
paper) shows "a relaxed design could be employed for such an aggressive
optimizer due to the high reuse ratio for optimized traces obtained by
virtue of the relatively high blazing threshold".  We sweep the latency
over an order of magnitude in each direction and check that performance
is essentially flat — the decoupling works.
"""

import dataclasses

from repro.core.simulator import ParrotSimulator
from repro.experiments.aggregate import geomean
from repro.experiments.engine import Scale
from repro.models.configs import model_ton
from repro.optimizer.pipeline import OptimizerConfig
from repro.workloads.suite import benchmark_suite

LATENCIES = (10, 100, 1000)


def _sweep():
    scale = Scale.from_environment()
    apps = benchmark_suite(max_apps=min(scale.apps or 8, 8))
    length = scale.length
    rows = {}
    for latency in LATENCIES:
        config = model_ton(optimizer=OptimizerConfig(latency_cycles=latency))
        results = [
            ParrotSimulator(config).simulate(app, length=length)
            for app in apps
        ]
        rows[latency] = {
            "ipc": geomean([r.ipc for r in results]),
            "optimized_execs": sum(
                r.trace_stats.optimized_executions for r in results
            ),
        }
    return rows


def test_ablation_optimizer_latency(benchmark, record_output):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = ["Sensitivity: optimizer latency (TON)"]
    for latency, row in rows.items():
        lines.append(
            f"  latency={latency:5d} cycles  IPC={row['ipc']:.3f}  "
            f"optimized executions={row['optimized_execs']}"
        )
    record_output("ablation_optimizer_latency", "\n".join(lines))

    fast, nominal, slow = (rows[l]["ipc"] for l in LATENCIES)
    # The decoupled optimizer is off the critical path: a 100x latency
    # range moves performance by only a few percent.
    assert abs(fast - nominal) / nominal < 0.05
    assert abs(slow - nominal) / nominal < 0.05
    # But a slower optimizer does reduce how much execution runs optimized.
    assert rows[1000]["optimized_execs"] <= rows[10]["optimized_execs"]
