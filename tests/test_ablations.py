"""Ablations and sensitivities of PARROT's design choices (TON/TOW/TOS).

Each test sweeps one knob of a model over 8 applications x 20k
instructions and asserts the direction the paper (or its companion paper)
argues for:

* selective filtering vs indiscriminate trace construction (DESIGN.md:
  gradual hot/blazing filtering spends construction energy only where
  reuse amortises it);
* optimizer latency (§2.4/§3.1: "a relaxed design could be employed ...
  due to the high reuse ratio for optimized traces");
* general-purpose vs core-specific optimization classes (§2.4);
* split core (TOS) vs unified wide core (TOW) (§2.3);
* trace-cache capacity vs coverage (§4.2).  Saturation reflects the
  scaled-down synthetic working sets (a few hundred hot-trace uops per
  application); the paper's 30-100M-instruction traces keep growing
  further out.
"""

import dataclasses

from repro.core.simulator import ParrotSimulator
from repro.experiments.aggregate import arithmetic_mean, geomean
from repro.models.configs import model_config, model_ton
from repro.optimizer.pipeline import OptimizerConfig
from repro.workloads.suite import benchmark_suite

APPS = 8
LENGTH = 20_000


def _results(config):
    simulator = ParrotSimulator(config)
    return [
        simulator.simulate(app, length=LENGTH)
        for app in benchmark_suite(max_apps=APPS)
    ]


def test_ablation_filters():
    baseline = model_ton()
    variants = {
        "selective (default)": baseline,
        "unfiltered (hot=1)": dataclasses.replace(baseline, hot_threshold=1),
        "conservative (hot=32)": dataclasses.replace(baseline, hot_threshold=32),
    }
    rows = {}
    for name, config in variants.items():
        results = _results(config)
        rows[name] = {
            "ipc": geomean([r.ipc for r in results]),
            "construct_uops": sum(r.events.get("construct_uop", 0) for r in results),
            "trace_unit_energy": sum(
                r.energy.by_component["trace_unit"] for r in results
            ),
        }

    selective = rows["selective (default)"]
    unfiltered = rows["unfiltered (hot=1)"]
    conservative = rows["conservative (hot=32)"]
    # Unfiltered insertion constructs far more traces...
    assert unfiltered["construct_uops"] > 2 * selective["construct_uops"]
    # ...and burns more trace-unit energy for little benefit.
    assert unfiltered["trace_unit_energy"] > selective["trace_unit_energy"]
    # Over-conservative filtering loses performance relative to the default.
    assert conservative["ipc"] <= selective["ipc"] * 1.02


def test_ablation_optimizer_latency():
    latencies = (10, 100, 1000)
    rows = {}
    for latency in latencies:
        results = _results(
            model_ton(optimizer=OptimizerConfig(latency_cycles=latency))
        )
        rows[latency] = {
            "ipc": geomean([r.ipc for r in results]),
            "optimized_execs": sum(
                r.trace_stats.optimized_executions for r in results
            ),
        }

    fast, nominal, slow = (rows[latency]["ipc"] for latency in latencies)
    # The decoupled optimizer is off the critical path: a 100x latency
    # range moves performance by only a few percent.
    assert abs(fast - nominal) / nominal < 0.05
    assert abs(slow - nominal) / nominal < 0.05
    # But a slower optimizer does reduce how much execution runs optimized.
    assert rows[1000]["optimized_execs"] <= rows[10]["optimized_execs"]


def test_ablation_passes():
    variants = {
        "generic only": model_ton(
            optimizer=OptimizerConfig(enable_core_specific=False)
        ),
        "full optimizer": model_ton(),
    }
    rows = {}
    for name, config in variants.items():
        results = _results(config)
        rows[name] = {
            "ipc": geomean([r.ipc for r in results]),
            "uop_reduction": sum(r.uop_reduction for r in results) / len(results),
        }

    generic = rows["generic only"]
    full = rows["full optimizer"]
    # Core-specific passes deepen uop reduction meaningfully...
    assert full["uop_reduction"] > generic["uop_reduction"] * 1.1
    # ...without costing performance.
    assert full["ipc"] >= generic["ipc"] * 0.98


def test_ablation_split():
    rows = {}
    for name in ("TOW", "TOS"):
        results = _results(model_config(name))
        rows[name] = {
            "ipc": geomean([r.ipc for r in results]),
            "leakage": geomean([r.energy.leakage for r in results]),
            "switches": sum(r.events.get("state_switch", 0) for r in results),
        }

    tow, tos = rows["TOW"], rows["TOS"]
    # The split machine actually pays state switches.
    assert tos["switches"] > 0
    # The extra die (two cores) shows up as leakage/idle energy.
    assert tos["leakage"] > tow["leakage"]
    # Cold code on a narrow pipeline + switch stalls: no free lunch.
    assert tos["ipc"] <= tow["ipc"] * 1.05


def test_ablation_tcache_size():
    sizes = (64, 256, 16 * 1024)
    coverage = {
        size: arithmetic_mean(
            r.coverage
            for r in _results(dataclasses.replace(model_ton(), tcache_uops=size))
        )
        for size in sizes
    }

    small, nominal, big = (coverage[size] for size in sizes)
    # Coverage is monotone in capacity...
    assert small <= nominal + 0.02
    assert nominal <= big + 0.02
    # ...and saturates: the last 4x buys far less than the first 8x.
    assert (big - nominal) <= (nominal - small) + 0.05
