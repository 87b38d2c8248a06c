"""Ablation: split-core (TOS) vs. unified wide core (TOW).

§2.3: a split design enables core specialisation but "increases die size
and introduces complexities associated with cold/hot state switches";
the unified core "simplifies the design, and reduces both die size and
idle power".  The paper leaves split designs as future work and shows TOS
only as a reference — this ablation quantifies the trade in our model.
"""

from repro.core.simulator import ParrotSimulator
from repro.experiments.aggregate import geomean
from repro.experiments.engine import Scale
from repro.models.configs import model_config
from repro.workloads.suite import benchmark_suite


def _sweep():
    scale = Scale.from_environment()
    apps = benchmark_suite(max_apps=min(scale.apps or 8, 8))
    length = scale.length
    rows = {}
    for name in ("TOW", "TOS"):
        results = [
            ParrotSimulator(model_config(name)).simulate(app, length=length)
            for app in apps
        ]
        rows[name] = {
            "ipc": geomean([r.ipc for r in results]),
            "energy": geomean([r.total_energy for r in results]),
            "leakage": geomean([r.energy.leakage for r in results]),
            "switches": sum(r.events.get("state_switch", 0) for r in results),
        }
    return rows


def test_ablation_split(benchmark, record_output):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = ["Ablation: split (TOS) vs unified (TOW) core"]
    for name, row in rows.items():
        lines.append(
            f"  {name:4s} IPC={row['ipc']:.3f} energy={row['energy']:.0f} "
            f"leakage={row['leakage']:.0f} state_switches={row['switches']:.0f}"
        )
    record_output("ablation_split", "\n".join(lines))

    tow, tos = rows["TOW"], rows["TOS"]
    # The split machine actually pays state switches.
    assert tos["switches"] > 0
    # The extra die (two cores) shows up as leakage/idle energy.
    assert tos["leakage"] > tow["leakage"]
    # Cold code on a narrow pipeline + switch stalls: no free lunch.
    assert tos["ipc"] <= tow["ipc"] * 1.05
