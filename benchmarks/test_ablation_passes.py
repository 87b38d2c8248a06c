"""Ablation: general-purpose vs. core-specific optimization classes (§2.4).

The companion-paper claim the text summarises: core-specific optimizations
(fusion, SIMDification, virtual renaming, scheduling) substantially
increase both performance improvement and energy savings over generic
optimizations (constant propagation, logic simplification, DCE) alone.
"""

from repro.core.simulator import ParrotSimulator
from repro.experiments.aggregate import geomean
from repro.experiments.engine import Scale
from repro.models.configs import model_ton
from repro.optimizer.pipeline import OptimizerConfig
from repro.workloads.suite import benchmark_suite


def _sweep():
    scale = Scale.from_environment()
    apps = benchmark_suite(max_apps=min(scale.apps or 8, 8))
    length = scale.length
    variants = {
        "generic only": model_ton(optimizer=OptimizerConfig(enable_core_specific=False)),
        "full optimizer": model_ton(),
    }
    rows = {}
    for name, config in variants.items():
        results = [
            ParrotSimulator(config).simulate(app, length=length)
            for app in apps
        ]
        rows[name] = {
            "ipc": geomean([r.ipc for r in results]),
            "energy": geomean([r.total_energy for r in results]),
            "uop_reduction": sum(r.uop_reduction for r in results) / len(results),
        }
    return rows


def test_ablation_passes(benchmark, record_output):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = ["Ablation: optimizer pass classes (TON)"]
    for name, row in rows.items():
        lines.append(
            f"  {name:16s} IPC={row['ipc']:.3f} energy={row['energy']:.0f} "
            f"uop_reduction={row['uop_reduction']:.3f}"
        )
    record_output("ablation_passes", "\n".join(lines))

    generic = rows["generic only"]
    full = rows["full optimizer"]
    # Core-specific passes deepen uop reduction meaningfully...
    assert full["uop_reduction"] > generic["uop_reduction"] * 1.1
    # ...without costing performance.
    assert full["ipc"] >= generic["ipc"] * 0.98
