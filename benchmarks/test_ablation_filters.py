"""Ablation: selective filtering vs. indiscriminate trace construction.

DESIGN.md calls out gradual hot/blazing filtering as PARROT's key
power-awareness mechanism: construction and optimization energy is spent
only where reuse will amortise it.  This ablation compares the TON model
against a variant with the hot filter effectively disabled (threshold 1:
every committed segment is constructed and inserted) and one with a very
conservative threshold.
"""

import dataclasses

from repro.core.simulator import ParrotSimulator
from repro.experiments.aggregate import geomean
from repro.experiments.engine import Scale
from repro.models.configs import model_ton
from repro.workloads.suite import benchmark_suite


def _run_grid(config, apps, length):
    simulator = ParrotSimulator(config)
    return [simulator.simulate(app, length=length) for app in apps]


def _sweep():
    scale = Scale.from_environment()
    apps = benchmark_suite(max_apps=min(scale.apps or 8, 8))
    length = scale.length
    baseline = model_ton()
    variants = {
        "selective (default)": baseline,
        "unfiltered (hot=1)": dataclasses.replace(baseline, hot_threshold=1),
        "conservative (hot=32)": dataclasses.replace(baseline, hot_threshold=32),
    }
    rows = {}
    for name, config in variants.items():
        results = _run_grid(config, apps, length)
        rows[name] = {
            "ipc": geomean([r.ipc for r in results]),
            "energy": geomean([r.total_energy for r in results]),
            "construct_uops": sum(r.events.get("construct_uop", 0) for r in results),
            "trace_unit_energy": sum(
                r.energy.by_component["trace_unit"] for r in results
            ),
        }
    return rows


def test_ablation_filters(benchmark, record_output):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = ["Ablation: hot-filter selectivity (TON)"]
    for name, row in rows.items():
        lines.append(
            f"  {name:24s} IPC={row['ipc']:.3f} energy={row['energy']:.0f} "
            f"construct_uops={row['construct_uops']:.0f} "
            f"trace_unit_E={row['trace_unit_energy']:.0f}"
        )
    record_output("ablation_filters", "\n".join(lines))

    selective = rows["selective (default)"]
    unfiltered = rows["unfiltered (hot=1)"]
    conservative = rows["conservative (hot=32)"]
    # Unfiltered insertion constructs far more traces...
    assert unfiltered["construct_uops"] > 2 * selective["construct_uops"]
    # ...and burns more trace-unit energy for little benefit.
    assert unfiltered["trace_unit_energy"] > selective["trace_unit_energy"]
    # Over-conservative filtering loses performance relative to the default.
    assert conservative["ipc"] <= selective["ipc"] * 1.02
