#!/usr/bin/env python
"""Sampled-simulation validation harness: sampled vs full-detail runs.

A thin CLI over :mod:`repro.sampling.accuracy` — the same harness the
accuracy-regression suite (``tests/test_sampling_accuracy.py``) and the
CI smoke jobs run, so the tool and the tests cannot drift.  For each
(application, model) pair it runs the full-detail simulation and the
sampled simulation over the same stream and reports the IPC/EPI point
errors, whether the full-detail value falls inside the sampled run's
confidence intervals (per phase too, in adaptive mode), and the
wall-clock speedup.  The default pairs are the golden apps the acceptance
criteria are phrased over; the numbers in the EXPERIMENTS.md sampling
sections come from this harness.

Usage:  python tools/validate_sampling.py [--length L] [--pairs swim:TON,...]
        [--sampling [adaptive:]DETAIL:GAP:WARMUP[:FUNC_WARM][:CONFIDENCE]]
        [--source generator|artifact]
        [--repeat N]
"""

from __future__ import annotations

import argparse
import tempfile

from repro.sampling import SamplingConfig
from repro.sampling.accuracy import (
    GOLDEN_PAIRS,
    AccuracyHarness,
    aggregate_speedup,
    format_report,
    parse_pairs,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--length", type=int, default=200_000)
    parser.add_argument("--pairs", type=str,
                        default=",".join(f"{a}:{m}" for a, m in GOLDEN_PAIRS),
                        help="comma-separated app:model pairs")
    parser.add_argument("--sampling", type=str, default="on",
                        help="sampling spec: 'on' (tuned fixed defaults), "
                             "'adaptive' (tuned phase-aware defaults), or "
                             "an explicit [adaptive:]DETAIL:GAP:WARMUP spec")
    parser.add_argument("--source", type=str, default="generator",
                        choices=["generator", "artifact"],
                        help="simulate the live generator stream or a "
                             "compiled trace artifact (both sides alike)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timing repetitions (speedup = best of N)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="also fail unless the pooled wall-clock "
                             "speedup (sum of full seconds / sum of "
                             "sampled seconds) reaches this floor")
    args = parser.parse_args()

    sampling = SamplingConfig.parse(args.sampling) or SamplingConfig()
    pairs = parse_pairs(args.pairs)
    print(f"sampling: {sampling.fingerprint()}")
    print(f"length:   {args.length}  "
          f"(detail fraction {sampling.detail_fraction:.1%})\n")

    with tempfile.TemporaryDirectory() as tmp:
        harness = AccuracyHarness(
            length=args.length,
            source=args.source,
            root=(tmp if args.source == "artifact" else None),
            repeat=args.repeat,
        )
        results = harness.sweep(sampling, pairs)

    print(format_report(results))
    all_ok = all(r.ipc_in_ci and r.epi_in_ci for r in results)
    print(f"\n{'all full-detail values inside the reported CIs' if all_ok else 'CI MISSES — see above'}")
    if args.min_speedup is not None:
        pooled = aggregate_speedup(results)
        fast_enough = pooled >= args.min_speedup
        print(f"pooled speedup {pooled:.2f}x "
              f"({'meets' if fast_enough else 'BELOW'} the "
              f"{args.min_speedup:g}x floor)")
        all_ok = all_ok and fast_enough
    raise SystemExit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
