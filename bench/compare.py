"""Compare two benchmark result files, one row per workload.

    python bench/compare.py A.json B.json

Each end-to-end metric of ``BENCHMARK.json`` is compared by median, B
against A, as the share by which B is better or worse:

* ``unresolved`` when either side's IQR, as a share of its median, is
  wider than the metric's bound (the noise hides a change that size);
* ``worse`` / ``improved`` when B differs by more than the bound;
* ``unchanged`` otherwise.

Output digests that differ between A and B are flagged.  Exits with 1
when any metric is worse or any digest differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import load_spec


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, signed share by which B is better than A)."""
    change = (b["median"] - a["median"]) / a["median"]
    if better == "lower":
        change = -change
    if any(side["iqr"] / side["median"] > bound for side in (a, b)):
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "improved", change
    return "unchanged", change


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B regressed against A."""
    lines = []
    regressed = False
    for workload, left in a["workloads"].items():
        right = b["workloads"].get(workload)
        if right is None:
            lines.append(f"{workload}: missing from B")
            regressed = True
            continue
        cells = []
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name not in left["metrics"] or name not in right["metrics"]:
                cells.append(f"{name} missing")
                regressed = True
                continue
            state, change = verdict(left["metrics"][name],
                                    right["metrics"][name],
                                    entry["better"], entry["bound"])
            regressed |= state == "worse"
            cells.append(f"{name} {state} ({change:+.1%})")
        differing = sorted(
            key for key in left["digests"].keys() | right["digests"].keys()
            if left["digests"].get(key) != right["digests"].get(key)
        )
        if differing:
            regressed = True
            cells.append(f"DIGESTS DIFFER: {', '.join(differing)}")
        lines.append(f"{workload}: " + "; ".join(cells))
    return lines, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline results.json")
    parser.add_argument("b", type=Path, help="candidate results.json")
    args = parser.parse_args(argv)
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    lines, regressed = compare(a, b, load_spec())
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
