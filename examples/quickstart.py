#!/usr/bin/env python
"""Quickstart: simulate one application on the baseline and on PARROT.

Runs swim (SpecFP) on the 4-wide reference machine N and on the PARROT
TON machine (same width + selective trace cache + dynamic optimizer),
then prints the performance / energy / power-awareness comparison that
is the paper's core claim.

Usage:  python examples/quickstart.py [app] [instructions]
"""

import sys

from repro import ParrotSimulator, application, model_config
from repro.power.metrics import cmpw_improvement, energy_increase, ipc_improvement


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "swim"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    app = application(app_name)
    print(f"application: {app.name} ({app.suite}), {length} instructions\n")

    results = {}
    for model_name in ("N", "TON"):
        config = model_config(model_name)
        result = ParrotSimulator(config).simulate(app, length=length)
        results[model_name] = result
        print(f"model {model_name:3s} — {config.description}")
        print(f"  IPC               {result.ipc:8.3f}")
        print(f"  cycles            {result.cycles:8.0f}")
        print(f"  total energy      {result.total_energy:8.0f} units")
        print(f"  coverage          {result.coverage:8.1%}")
        if result.trace_stats.traces_constructed:
            print(f"  traces built      {result.trace_stats.traces_constructed:8d}")
            print(f"  traces optimized  {result.trace_stats.traces_optimized:8d}")
            print(f"  uop reduction     {result.uop_reduction:8.1%}")
        print()

    base, parrot = results["N"].point, results["TON"].point
    print("PARROT (TON) vs baseline (N):")
    print(f"  IPC    {ipc_improvement(parrot, base):+8.1%}")
    print(f"  energy {energy_increase(parrot, base):+8.1%}")
    print(f"  CMPW   {cmpw_improvement(parrot, base):+8.1%}   (cubic-MIPS-per-WATT)")


if __name__ == "__main__":
    main()
