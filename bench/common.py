"""Helpers shared by the benchmark's parent, its children and its tools.

Paths are resolved from this file, so the benchmark runs from any copy
of the repository: the simulator is imported from ``<root>/src`` and
everything the benchmark writes stays under ``<root>/bench/out``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = BENCH / "expected" / "seed0.json"

#: Lines of the child protocol on standard output.
READY = "BENCH-READY"
RESULT = "BENCH-RESULT "


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics and bounds."""
    return json.loads(SPEC_PATH.read_text())


def use_source_tree() -> None:
    """Import ``repro`` from this checkout, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(cache_dir: Path) -> dict:
    """The environment of every process the benchmark starts.

    Each workload gets a private, empty ``REPRO_CACHE_DIR`` (so no cache
    survives from an earlier run or from the user's home), and every
    ``REPRO_BENCH_*`` knob and ``REPRO_COMPILED_CACHE`` is removed so the
    caller's shell cannot change what is measured.  Temporary files land
    inside the cache directory.
    """
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_BENCH_") and key != "REPRO_COMPILED_CACHE"
    }
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(cache_dir)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def digest(payload) -> str:
    """SHA-256 of a JSON-serialisable payload in canonical form."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def summarize(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(values),
        "unit": unit,
    }


def percentile(values: list[float], share: float) -> float:
    """The ``share`` quantile (0..1) by linear interpolation."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def calibrate(iterations: int = 5_000_000) -> float:
    """Seconds a fixed pure-Python loop takes: host speed, not a metric."""
    from time import perf_counter

    start = perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return perf_counter() - start
