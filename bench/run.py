"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

    python bench/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace [0|1]] [--smoke] [--out DIR]
    python bench/run.py --regen-expected

Each workload runs in fresh child processes (``bench/workloads.py``),
each with a private, empty ``REPRO_CACHE_DIR`` under the output directory
and without the ``REPRO_BENCH_*``/``REPRO_COMPILED_CACHE`` variables of
the calling shell.  The command prints every metric with its unit,
checks the outputs (``bench/expected/seed0.json`` pins seed 0; other
seeds must repeat exactly), writes ``results.json`` (``results-trace.json``
for a traced run) and appends one row to ``ledger.jsonl`` in the output
directory (default ``bench/out``).  A traced run also writes
``trace-<workload>.json`` there.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{"value", "unit"}`` per
metric): the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace`` its per-layer metrics.  With several workloads the metric
names are prefixed with ``<workload>.``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from common import (
    BENCH,
    EXPECTED_PATH,
    OUT,
    READY,
    RESULT,
    ROOT,
    SRC,
    calibrate,
    child_env,
    load_spec,
    summarize,
)

#: Seconds one workload may take, child processes included.
WORKLOAD_DEADLINE = 170.0

#: Set-ups timed per workload run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


class BenchError(Exception):
    """A child failed to produce its result."""


class Workload:
    """Runs one workload's child processes and collects their payloads."""

    def __init__(self, name: str, args: argparse.Namespace, out: Path,
                 deadline: float):
        self.name = name
        self.args = args
        self.out = out
        self.deadline = deadline
        self.caches = out / "tmp"
        self.setup_s: list[float] = []
        self.payloads: list[dict] = []
        self._dirs = 0

    def fresh_cache(self) -> Path:
        self._dirs += 1
        path = self.caches / f"{self.name}-{os.getpid()}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def spawn(self, role: str, cache: Path, *extra: str) -> dict:
        """Run one child; returns its payload, timing set-up if it has one."""
        args = self.args
        command = [
            sys.executable, str(BENCH / "workloads.py"), self.name,
            "--role", role, "--cache", str(cache), "--seed", str(args.seed),
            "--seconds", str(args.seconds), *extra,
        ]
        if args.smoke:
            command.append("--smoke")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{self.name}: out of time before {role}")
        start = perf_counter()
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
            env=child_env(cache),
        )
        watchdog = threading.Timer(timeout, process.kill)
        watchdog.start()
        payload = None
        try:
            for line in process.stdout:
                if line.startswith(READY):
                    if role in ("session", "setup"):
                        self.setup_s.append(perf_counter() - start)
                elif line.startswith(RESULT):
                    payload = json.loads(line[len(RESULT):])
            process.wait()
        finally:
            watchdog.cancel()
            if process.poll() is None:
                process.kill()
                process.wait()
        if process.returncode != 0 or payload is None:
            raise BenchError(
                f"{self.name}: {role} child exited with {process.returncode}")
        if role == "session":
            self.payloads.append(payload)
        return payload

    # -- untraced -------------------------------------------------------------

    def measure(self) -> None:
        """The timed phase, then more set-ups until there are enough."""
        cache = self.fresh_cache()
        if self.name == "store_warm":
            self.spawn("prepare", cache)
        if self.name == "grid_cold":
            self.grid_reps()
        else:
            self.spawn("session", cache)
        while len(self.setup_s) < SETUP_SAMPLES:
            self.spawn("setup", cache if self.name == "store_warm"
                       else self.fresh_cache())

    def grid_reps(self) -> None:
        """Cold grids, each in a fresh process with a fresh cache."""
        minimum = 2 if self.args.smoke else 3
        start = perf_counter()
        walls: list[float] = []
        while len(walls) < minimum or (
            perf_counter() - start + statistics.median(walls)
            <= self.args.seconds
        ):
            payload = self.spawn("session", self.fresh_cache())
            walls.append(payload["seconds"])

    # -- traced ---------------------------------------------------------------

    def trace(self) -> None:
        """One traced repetition, with an untraced one for the overhead."""
        trace_out = str(self.out / f"trace-{self.name}.json")
        cache = self.fresh_cache()
        if self.name == "grid_cold":
            # Each grid needs a fresh process and cache, so the untraced
            # baseline is a separate child.
            baseline = self.spawn("session", cache)
            self.spawn("session", self.fresh_cache(),
                       "--trace", "--trace-out", trace_out,
                       "--baseline", str(baseline["seconds"]))
            return
        if self.name == "store_warm":
            self.spawn("prepare", cache)
        self.spawn("session", cache, "--trace", "--trace-out", trace_out)

    # -- report -----------------------------------------------------------------

    def report(self, spec: dict, calib: list[float]) -> dict:
        samples: dict[str, dict] = {}
        for payload in self.payloads:
            for metric, entry in payload["samples"].items():
                merged = samples.setdefault(
                    metric, {"unit": entry["unit"], "values": []})
                merged["values"].extend(entry["values"])
        metrics = {}
        if self.setup_s and not self.args.trace:
            metrics["setup_s"] = summarize(self.setup_s, "s")
        metrics["peak_rss_mb"] = summarize(
            [p["peak_rss_mb"] for p in self.payloads], "MB")
        for metric, entry in samples.items():
            metrics[metric] = summarize(entry["values"], entry["unit"])
        attempted = sum(p["attempted"] for p in self.payloads)
        failed = sum(p["failed"] for p in self.payloads)
        errors = [e for p in self.payloads for e in p["errors"]]
        digests: dict[str, str] = {}
        for payload in self.payloads:
            for key, value in payload["digests"].items():
                if digests.setdefault(key, value) != value:
                    errors.append(f"{key}: output differs between runs")
                    failed += 1
        report = {
            "attempted": attempted,
            "failed": failed,
            "correct": failed == 0 and attempted > 0,
            "errors": errors[:20],
            "metrics": metrics,
            "digests": digests,
            "host": {"calib_s": calib},
        }
        if self.args.trace:
            report["layers"] = {
                entry["name"]: self.payloads[-1]["layers"][entry["name"]]
                for entry in spec["per_layer"]
            }
        return report


def run_workload(name: str, args: argparse.Namespace, out: Path,
                 spec: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_DEADLINE
    workload = Workload(name, args, out, deadline)
    calib = [calibrate()]
    try:
        if args.trace:
            workload.trace()
        else:
            workload.measure()
    finally:
        shutil.rmtree(workload.caches, ignore_errors=True)
    calib.append(calibrate())
    return workload.report(spec, calib)


def regen_expected(args: argparse.Namespace, out: Path, spec: dict) -> int:
    """Recompute ``bench/expected/seed0.json`` at full scale."""
    expected: dict = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        workload = Workload(name, args, out, time.monotonic() + 900.0)
        try:
            payload = workload.spawn("expected", workload.fresh_cache())
        finally:
            shutil.rmtree(workload.caches, ignore_errors=True)
        expected["scale"] = payload.pop("scale")
        expected[name] = payload
    EXPECTED_PATH.parent.mkdir(parents=True, exist_ok=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True)
                             + "\n")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")
    return 0


def git_state() -> tuple[str | None, bool | None]:
    """(commit, clean tree) of the checkout, or Nones outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return commit, not status.strip()


def format_value(value: float) -> str:
    if value == 0 or abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def print_report(name: str, report: dict) -> None:
    print(f"== {name}: {report['attempted']} operations, "
          f"{report['failed']} failed"
          + ("" if report["correct"] else "  ** OUTPUT CHECK FAILED **"))
    for metric, entry in report["metrics"].items():
        spread = entry["iqr"] / entry["median"] if entry["median"] else 0.0
        print(f"  {metric:22} {format_value(entry['median']):>14} "
              f"{entry['unit']:6} IQR {spread:6.1%}  n={entry['n']}")
    for metric, value in report.get("layers", {}).items():
        print(f"  {metric:22} {format_value(value):>14}")
    for error in report["errors"]:
        print(f"  ! {error}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the default input set")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="run one traced repetition for per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="short lengths and counts, for tests")
    parser.add_argument("--out", type=Path, default=OUT,
                        help="results directory (default bench/out)")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rebuild bench/expected/seed0.json")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.regen_expected:
            args.seed, args.trace, args.smoke = 0, 0, False
            return regen_expected(args, out, spec)
        workloads = [args.workload] if args.workload else names
        reports = {
            name: run_workload(name, args, out, spec) for name in workloads
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    commit, clean = git_state()
    results = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": commit,
        "clean": clean,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "workloads": reports,
    }
    name = "results-trace.json" if args.trace else "results.json"
    (out / name).write_text(json.dumps(results, indent=2) + "\n")
    with (out / "ledger.jsonl").open("a") as ledger:
        ledger.write(json.dumps({
            **{k: v for k, v in results.items() if k != "workloads"},
            "host": {"calib_s": {w: r["host"]["calib_s"]
                                 for w, r in reports.items()}},
            "workloads": {
                workload: {
                    metric: {"median": m["median"], "iqr": m["iqr"],
                             "n": m["n"]}
                    for metric, m in report["metrics"].items()
                }
                for workload, report in reports.items()
            },
        }) + "\n")

    for workload, report in reports.items():
        print_report(workload, report)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for workload, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{workload}."
        for entry in spec[kind]:
            metric = entry["name"]
            value = (report["layers"][metric] if args.trace
                     else report["metrics"][metric]["median"])
            metrics[prefix + metric] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
