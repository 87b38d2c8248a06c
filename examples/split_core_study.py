#!/usr/bin/env python
"""Future-work study: alternatives for the decoupled split core (§5).

The paper closes with: "One major topic for future research is related to
split-core micro-architectures.  We intend to investigate the potential
advantage of such design for establishing even better performance/energy
tradeoffs by considering different alternatives for the decoupled split
cores."

This study sweeps the two knobs our TOS model exposes — the cold
pipeline's width and the cold/hot state-switch latency — and compares
each variant against the unified TOW machine, quantifying how cheap the
cold core can get (idle-power savings) before switch costs and cold-phase
slowdowns eat the benefit.

Usage:  python examples/split_core_study.py [--apps N] [--length L]
"""

import argparse

from repro import ParrotSimulator, benchmark_suite, model_config
from repro.experiments.aggregate import geomean
from repro.models.configs import model_tos


def sweep(apps, length):
    variants = {"TOW (unified)": model_config("TOW")}
    for cold_width in (2, 4):
        for switch_latency in (1, 3, 8):
            name = f"TOS cold={cold_width}w switch={switch_latency}"
            variants[name] = model_tos(
                cold_width=cold_width, state_switch_latency=switch_latency
            )
    rows = {}
    for name, config in variants.items():
        results = [
            ParrotSimulator(config).simulate(app, length=length)
            for app in apps
        ]
        rows[name] = {
            "ipc": geomean([r.ipc for r in results]),
            "energy": geomean([r.total_energy for r in results]),
            "cmpw": geomean([r.point.cmpw for r in results]),
        }
    return rows


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--apps", type=int, default=8)
    parser.add_argument("--length", type=int, default=12_000)
    args = parser.parse_args()

    apps = benchmark_suite(max_apps=args.apps)
    rows = sweep(apps, args.length)
    base = rows["TOW (unified)"]

    header = f"{'variant':28}{'IPC':>8}{'energy':>10}{'CMPW':>9}"
    print(header)
    print("-" * len(header))
    for name, row in rows.items():
        print(f"{name:28}{row['ipc'] / base['ipc'] - 1:>+7.1%} "
              f"{row['energy'] / base['energy'] - 1:>+9.1%}"
              f"{row['cmpw'] / base['cmpw'] - 1:>+9.1%}")

    print(
        "\n(vs the unified TOW machine.)  The split design pays switch\n"
        "latency and the second core's leakage; a narrower cold core\n"
        "saves little because cold code is rare but switch-bound.  This\n"
        "is the trade the paper flags as open future work."
    )


if __name__ == "__main__":
    main()
