"""The benchmark's four workloads, each run in child processes by run.py.

    python bench/workloads.py WORKLOAD --role ROLE --cache DIR
        [--seed N] [--seconds S] [--trace] [--smoke]

Roles: ``session`` sets up, prints ``BENCH-READY`` and measures;
``setup`` stops after ``BENCH-READY`` (extra set-up samples); ``prepare``
builds the untimed inputs of ``store_warm``; ``expected`` computes the
seed-0 outputs that ``bench/expected/seed0.json`` pins.  Every role ends
with one ``BENCH-RESULT {json}`` line on standard output.

Workload inputs come from ``--seed``.  Seed 0 is the default input set:
the four (application, model) pairs run each application's default
dynamic stream.  Another seed replays each pair's program along a
different dynamic path (its generator's ``stream_seed``), shuffles the
order of the ``grid_cold`` cells and draws another ``store_warm`` read
sequence.  Both grids always hold the cells of ``repro figure --apps 15``:
which applications fill a grid moves its cost by ~25%, more than a
regression bound can absorb.  Every simulation passes ``backend=compiled``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import warnings
import zlib
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

from common import (
    BENCH,
    EXPECTED_PATH,
    READY,
    RESULT,
    digest,
    percentile,
    use_source_tree,
)

use_source_tree()

import tracing  # noqa: E402

#: (application, model) pairs of the two single-run workloads: hot-trace
#: dominated (swim/TON) to cold-only (gcc/N has no trace cache).
PAIRS = (("swim", "TON"), ("crafty", "TON"), ("excel", "TOW"), ("gcc", "N"))

#: A warm ``/api/result`` read slower than this counts as missed.
READ_LIMIT_MS = 5.0

#: Slices the ``store_warm`` phase alternates its parts in.
PHASE_SLICES = 4


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload (the smoke scale shrinks them for tests)."""

    full_length: int = 400_000
    sampled_length: int = 2_000_000
    #: The figure grid ``grid_cold`` computes and ``store_warm`` serves.
    grid_length: int = 5_000
    grid_apps: int = 15
    read_rate: float = 500.0
    min_rounds: int = 3


FULL = Scale()
SMOKE = Scale(full_length=20_000, sampled_length=200_000, grid_length=2_000,
              grid_apps=3, read_rate=200.0, min_rounds=2)


class Session:
    """One child's measurements, checks and (when tracing) spans."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.scale = SMOKE if args.smoke else FULL
        self.cache = Path(args.cache)
        self.samples: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.layers: dict[str, float] = {}
        #: Wall seconds of a grid_cold repetition.
        self.seconds: float | None = None
        self.tracer: tracing.Tracer | None = None
        expected = None
        if EXPECTED_PATH.exists():
            expected = json.loads(EXPECTED_PATH.read_text())
            if expected.get("scale") != asdict(self.scale):
                expected = None
        self.expected = expected

    def record(self, metric: str, unit: str, values) -> None:
        entry = self.samples.setdefault(metric, {"unit": unit, "values": []})
        if isinstance(values, (list, tuple)):
            entry["values"].extend(values)
        else:
            entry["values"].append(values)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` attempted operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(what)

    def expect(self, workload: str, key: str):
        if self.expected is None:
            return None
        return self.expected.get(workload, {}).get(key)

    def span(self, run: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span("op", run)

    def start_tracing(self) -> None:
        from repro.pipeline.specialize import LOADER_STATS

        self.tracer = tracing.Tracer()
        self.tracer.install()
        self._loader0 = dict(LOADER_STATS)

    def finish_tracing(self, overhead: float, extra: dict) -> None:
        from repro.pipeline.specialize import LOADER_STATS

        self.tracer.remove()
        layers = self.tracer.layer_metrics()
        for metric, key in (("plan_compiles", "compiles"),
                            ("plan_disk_hits", "disk_hits"),
                            ("plan_memory_hits", "memory_hits")):
            layers[metric] = LOADER_STATS[key] - self._loader0[key]
        layers.update({
            "tcache_hit_ratio": 0.0,
            "detail_ratio": 0.0,
            "reuse_ratio": 0.0,
            "import_s": 0.0,
            "lru_hit_ratio": 0.0,
        })
        layers.update(extra)
        layers["trace_overhead_pct"] = overhead * 100.0
        self.layers = layers
        out = Path(self.args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        self.tracer.dump(out, workload=self.args.workload,
                         seed=self.args.seed, layers=layers)

    def payload(self) -> dict:
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        return {
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "digests": self.digests,
            "layers": self.layers,
            "peak_rss_mb": usage / 1024.0,
            "seconds": self.seconds,
        }


def ready() -> None:
    print(READY, flush=True)


def timed_rounds(seconds: float, minimum: int, fn) -> list[float]:
    """Call ``fn`` (returning its own duration) for about ``seconds``.

    At least ``minimum`` rounds; no round starts once the median round
    would overrun the budget.
    """
    start = perf_counter()
    durations: list[float] = []
    while len(durations) < minimum or (
        perf_counter() - start + statistics.median(durations) <= seconds
    ):
        durations.append(fn())
    return durations


# -- full_detail and sampled: closed loop over the four pairs ----------------


def stream_seed(app_name: str, seed: int) -> int | None:
    """The pair's dynamic-path seed; ``None`` is the application default."""
    if seed == 0:
        return None
    return zlib.crc32(f"{app_name}/{seed}".encode("utf-8"))


class Sweep:
    """The four pairs, each simulated once per sweep by one caller."""

    def __init__(self, session: Session, sampled: bool):
        from repro.core.simulator import ParrotSimulator, RunOptions
        from repro.models.configs import model_config
        from repro.pipeline.columnar import ExecutionBackend
        from repro.sampling.config import SamplingConfig
        from repro.workloads.suite import application

        scale = session.scale
        self.session = session
        self.sampled = sampled
        self.workload = "sampled" if sampled else "full_detail"
        self.length = scale.sampled_length if sampled else scale.full_length
        self.options = RunOptions(
            backend=ExecutionBackend.COMPILED,
            sampling=SamplingConfig.adaptive() if sampled else None,
            estimate=sampled,
        )
        self.pairs = []
        for app_name, model in PAIRS:
            app = application(app_name)
            self.pairs.append((
                f"{app_name}/{model}", app, app.build(),
                ParrotSimulator(model_config(model)),
                stream_seed(app_name, session.args.seed),
            ))
        # Only seed 0 has pinned outputs; other seeds must repeat exactly.
        self.reference: dict[str, str] | None = (
            None if session.args.seed else session.expect(self.workload,
                                                          "digests"))

    def run_pair(self, pair, options):
        _label, app, workload, simulator, seed = pair
        stream = workload.stream(self.length, stream_seed=seed)
        return simulator.simulate(
            stream, options, length=self.length, app_name=app.name,
            suite=app.suite, program=workload.program,
        )

    def sweep(self) -> tuple[float, dict]:
        """One timed sweep: (seconds, {label: run})."""
        runs = {}
        seconds = 0.0
        for pair in self.pairs:
            with self.session.span(pair[0]):
                start = perf_counter()
                runs[pair[0]] = self.run_pair(pair, self.options)
                seconds += perf_counter() - start
        return seconds, runs

    def check(self, runs: dict) -> None:
        """Pin every result to the expected (or first-seen) digest."""
        digests = {}
        for label, run in runs.items():
            result = run.result if self.sampled else run
            digests[label] = digest(result.to_dict())
            ok = result.cycles > 0 and result.ipc > 0
            if self.reference is not None:
                ok = ok and digests[label] == self.reference[label]
            self.session.check(ok, f"{self.workload} {label}: output differs")
        if self.reference is None:
            self.reference = digests
        self.session.digests.update(digests)

    def measured_sweep(self) -> float:
        seconds, runs = self.sweep()
        self.check(runs)
        self.session.record("instr_per_s", "1/s",
                            len(runs) * self.length / seconds)
        self.session.record("request_ms_p50", "ms", seconds * 1000.0)
        return seconds

    def accuracy(self, runs: dict) -> None:
        """Worst pair's sampled error against the 2M full-detail reference.

        Compares the extrapolated result, which is what the store and
        every figure consume.
        """
        reference = self.session.expect("sampled", "reference")
        if reference is None or self.session.args.seed:
            return
        ipc_err = epi_err = 0.0
        for label, run in runs.items():
            ref = reference[label]
            result = run.result
            epi = result.total_energy / result.instructions
            ipc_err = max(ipc_err, abs(result.ipc - ref["ipc"]) / ref["ipc"])
            epi_err = max(epi_err, abs(epi - ref["epi"]) / ref["epi"])
        self.session.record("ipc_err_pct", "%", ipc_err * 100.0)
        self.session.record("epi_err_pct", "%", epi_err * 100.0)

    def model_layers(self, runs: dict) -> dict:
        """Layer statistics the results carry (not timings)."""
        hot = segments = 0
        detail = total = reused = periods = 0
        for run in runs.values():
            result = run.result if self.sampled else run
            hot += result.trace_stats.hot_executions
            segments += result.trace_stats.segments
            if self.sampled:
                detail += run.estimate.detail_instructions
                total += run.estimate.total_instructions
                for phase in run.estimate.phases:
                    reused += phase.reused
                    periods += phase.periods
        return {
            "tcache_hit_ratio": hot / segments if segments else 0.0,
            "detail_ratio": detail / total if total else 0.0,
            "reuse_ratio": reused / periods if periods else 0.0,
        }


def sweep_session(session: Session, sampled: bool) -> None:
    sweep = Sweep(session, sampled)
    ready()
    if session.args.role == "setup":
        return
    start = perf_counter()
    _, runs = sweep.sweep()
    session.record("warmup_s", "s", perf_counter() - start)
    sweep.check(runs)
    if sampled:
        sweep.accuracy(runs)
    scale = session.scale
    if not session.args.trace:
        timed_rounds(session.args.seconds, scale.min_rounds,
                     sweep.measured_sweep)
        return
    untraced = [sweep.measured_sweep() for _ in range(scale.min_rounds)]
    session.start_tracing()
    seconds, runs = sweep.sweep()
    sweep.check(runs)
    session.finish_tracing(
        seconds / statistics.median(untraced) - 1.0, sweep.model_layers(runs),
    )


def sweep_expected(session: Session, sampled: bool) -> dict:
    sweep = Sweep(session, sampled)
    _, runs = sweep.sweep()
    expected = {"digests": {
        label: digest((run.result if sampled else run).to_dict())
        for label, run in runs.items()
    }}
    if sampled:
        full = replace(sweep.options, sampling=None, estimate=False)
        expected["reference"] = {}
        for pair in sweep.pairs:
            result = sweep.run_pair(pair, full)
            expected["reference"][pair[0]] = {
                "ipc": result.ipc,
                "epi": result.total_energy / result.instructions,
            }
    return expected


# -- grid_cold: one first `repro figure` per fresh process --------------------


def figure_grid(apps: int) -> list[tuple[str, str]]:
    """The cells of ``repro figure --apps N``: every model over the suite."""
    from repro.models.configs import MODEL_NAMES
    from repro.workloads.suite import benchmark_suite

    return [
        (model, app.name)
        for model in MODEL_NAMES
        for app in benchmark_suite(max_apps=apps)
    ]


def grid_digest(results: dict) -> str:
    return digest(sorted(
        [model, app, digest(result.to_dict())]
        for (model, app), result in results.items()
    ))


def grid_session(session: Session) -> None:
    """One cold 105-cell grid: empty store, artifact cache and plan cache."""
    from repro.experiments.engine import ExperimentEngine, ResultStore
    from repro.pipeline.columnar import ExecutionBackend

    scale = session.scale
    tasks = figure_grid(scale.grid_apps)
    if session.args.seed:
        random.Random(session.args.seed).shuffle(tasks)
    # One process at jobs=1: on a two-core host, two pool workers made
    # identical grids differ by ~17% run to run, one worker by ~1%.
    engine = ExperimentEngine(
        scale.grid_length, jobs=1,
        store=ResultStore(session.cache / "store"),
        backend=ExecutionBackend.COMPILED,
    )
    ready()
    if session.args.role == "setup":
        return
    if session.args.trace:
        session.start_tracing()
    with session.span("grid"):
        start = perf_counter()
        results = engine.run(tasks)
        seconds = perf_counter() - start
    if session.args.trace:
        # The untraced baseline ran the same grid in a fresh process
        # before this one.
        hot = sum(r.trace_stats.hot_executions for r in results.values())
        segments = sum(r.trace_stats.segments for r in results.values())
        session.finish_tracing(seconds / session.args.baseline - 1.0, {
            "tcache_hit_ratio": hot / segments if segments else 0.0,
        })
    session.digests["grid"] = grid_digest(results)
    expected = session.expect("grid_cold", "digest")
    ok = (len(results) == len(tasks)
          and all(r.cycles > 0 and r.ipc > 0 for r in results.values())
          and (expected is None or session.digests["grid"] == expected))
    session.check(ok, "grid_cold: output differs", count=len(tasks))
    session.seconds = seconds
    session.record("request_ms_p50", "ms", seconds * 1000.0)
    session.record("instr_per_s", "1/s",
                   len(tasks) * scale.grid_length / seconds)
    session.record("cells_per_s", "1/s", len(tasks) / seconds)


# -- store_warm: the repeat user, served from a warm store --------------------


def store_prepare(session: Session) -> None:
    """Fill the store the timed phase reads (untimed input generation)."""
    from repro.experiments.engine import (
        ExperimentEngine,
        ResultStore,
        default_jobs,
    )
    from repro.pipeline.columnar import ExecutionBackend

    scale = session.scale
    tasks = figure_grid(scale.grid_apps)
    engine = ExperimentEngine(
        scale.grid_length, jobs=default_jobs(),
        store=ResultStore(session.cache / "store"),
        backend=ExecutionBackend.COMPILED,
    )
    results = engine.run(tasks)
    cells = [
        {"model": model, "app": app, "digest": digest(result.to_dict())}
        for (model, app), result in sorted(results.items())
    ]
    (session.cache / "cells.json").write_text(json.dumps(cells))


class Server:
    """A ``repro serve`` subprocess on an ephemeral localhost port."""

    def __init__(self, session: Session, command: list[str], tag: str):
        self.log = session.cache / f"serve-{tag}.log"
        self.handle = self.log.open("w")
        self.process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=self.handle,
            cwd=session.cache,
        )
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            text = self.log.read_text()
            marker = "listening on http://127.0.0.1:"
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not start: {self.log.read_text()}")

    def get(self, path: str) -> tuple[int, bytes]:
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=10.0) as sock:
            sock.sendall(
                f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Connection: close\r\n\r\n".encode("ascii"))
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), body

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.handle.close()


class StoreWarm:
    """Warm figures, open-loop reads and merges over the prepared store."""

    def __init__(self, session: Session):
        self.session = session
        self.scale = session.scale
        self.store = session.cache / "store"
        self.cells = json.loads((session.cache / "cells.json").read_text())
        self.rng = random.Random(session.args.seed)
        self.headline = session.expect("store_warm", "headline")
        self.server: Server | None = None

    def repro_command(self, traced: bool, tag: str) -> list[str]:
        if not traced:
            return [sys.executable, "-m", "repro"]
        out = self.session.cache / f"trace-{tag}.json"
        return [sys.executable, str(BENCH / "launch.py"), str(out), tag, "--"]

    def start_server(self, traced: bool) -> None:
        command = self.repro_command(traced, "serve") + [
            "serve", "--port", "0", "--store", str(self.store),
        ]
        self.server = Server(self.session, command, "traced" if traced else "plain")
        status, _ = self.server.get("/healthz")
        if status != 200:
            raise RuntimeError(f"repro serve /healthz answered {status}")

    def render(self) -> float:
        """The headline figure rendered in this process from the warm store.

        The same work as ``repro figure headline`` after its imports: a
        fresh runner, every cell read from disk, the figure formatted.
        """
        from repro.experiments.figures import FIGURE_GENERATORS
        from repro.experiments.runner import ExperimentRunner
        from repro.pipeline.columnar import ExecutionBackend

        scale = self.scale
        with self.session.span("render"):
            start = perf_counter()
            runner = ExperimentRunner(
                length=scale.grid_length, max_apps=scale.grid_apps, jobs=1,
                cache=True, cache_dir=self.store,
                backend=ExecutionBackend.COMPILED,
            )
            text = FIGURE_GENERATORS["headline"](runner).format() + "\n"
            seconds = perf_counter() - start
        ok = runner.simulations_run == 0 and self.same_headline(text)
        self.session.check(ok, f"render: {runner.simulations_run} "
                               f"simulated, digest {digest(text)}")
        self.session.record("instr_per_s", "1/s",
                            runner.cache_hits * scale.grid_length / seconds)
        return seconds

    def same_headline(self, text: str) -> bool:
        """Pin the figure text to the expected (or first-seen) digest."""
        self.session.digests["headline"] = digest(text)
        if self.headline is None:
            self.headline = digest(text)
        return digest(text) == self.headline

    def figure(self, traced: bool, index: int) -> float:
        """One warm `repro figure headline`; returns its wall seconds."""
        scale = self.scale
        command = self.repro_command(traced, f"figure-{index}") + [
            "figure", "headline", "--apps", str(scale.grid_apps),
            "--length", str(scale.grid_length), "--backend", "compiled",
        ]
        # `repro figure` reads the store at $REPRO_CACHE_DIR.
        env = dict(os.environ, REPRO_CACHE_DIR=str(self.store))
        start = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, cwd=self.session.cache, env=env)
        seconds = perf_counter() - start
        summary = [line for line in done.stderr.splitlines()
                   if line.startswith("# runs:")]
        simulated = int(summary[-1].split()[2]) if summary else -1
        ok = (done.returncode == 0 and simulated == 0
              and self.same_headline(done.stdout))
        self.session.check(ok, f"figure: exit {done.returncode}, "
                               f"{simulated} simulated")
        self.session.record("figure_s", "s", seconds)
        return seconds

    def reads(self, seconds: float, latencies: list, lateness: list) -> None:
        """Open-loop ``/api/result`` reads at the fixed rate for ``seconds``.

        Latency is timed from each request's due time, so a stall also
        counts against the requests queued behind it.
        """
        rate = self.scale.read_rate
        start = perf_counter() + 0.01
        for index in range(max(1, int(seconds * rate))):
            cell = self.rng.choice(self.cells)
            due = start + index / rate
            now = perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = perf_counter()
            try:
                status, body = self.server.get(
                    f"/api/result?model={cell['model']}&app={cell['app']}"
                    f"&length={self.scale.grid_length}")
            except OSError as exc:
                status, body = 0, str(exc).encode()
            done = perf_counter()
            latencies.append((done - due) * 1000.0)
            lateness.append(max(0.0, sent - due) * 1000.0)
            try:
                ok = (status == 200 and digest(json.loads(body)["result"])
                      == cell["digest"])
            except (ValueError, KeyError):
                ok = False
            self.session.check(ok, f"read {cell['model']}/{cell['app']}: "
                                   f"status {status}")

    def merge(self, index: int) -> float:
        """One ``ResultStore.merge_from`` into an empty destination."""
        from repro.experiments.engine import ResultStore

        target = self.session.cache / f"merge-{index}"
        with self.session.span(f"merge-{index}"):
            start = perf_counter()
            report = ResultStore(target).merge_from(self.store)
            seconds = perf_counter() - start
        ok = (report.copied == len(self.cells) and not report.conflicts
              and not report.quarantined)
        self.session.check(ok, f"merge: {report.copied} copied, "
                               f"{len(report.conflicts)} conflicts")
        shutil.rmtree(target, ignore_errors=True)
        self.session.record("merge_records_per_s", "1/s",
                            report.copied / seconds)
        return seconds

    def phase(self, seconds: float, traced: bool) -> float:
        """Figures, reads and merges; returns their busy seconds.

        The parts alternate in short slices, so a burst of host load hits
        a share of each rather than all of one.
        """
        figures, merges = itertools.count(), itertools.count()
        walls: list[float] = []
        latencies: list[float] = []
        lateness: list[float] = []
        busy = 0.0
        share = seconds / PHASE_SLICES
        for _ in range(PHASE_SLICES):
            busy += sum(timed_rounds(0.2 * share, 1, self.render))
            walls += timed_rounds(0.2 * share, 1,
                                  lambda: self.figure(traced, next(figures)))
            self.reads(0.4 * share, latencies, lateness)
            busy += sum(timed_rounds(0.2 * share, 1,
                                     lambda: self.merge(next(merges))))
        record = self.session.record
        record("figure_s_p66", "s", percentile(walls, 0.66))
        record("request_ms_p50", "ms", latencies)
        record("read_ms_p99", "ms", percentile(latencies, 0.99))
        record("read_late_ms_p99", "ms", percentile(lateness, 0.99))
        record("reads_missed", "count",
               sum(1 for v in latencies if v > READ_LIMIT_MS))
        return busy + sum(walls) + sum(latencies) / 1000.0


def import_seconds() -> float:
    """``import repro.cli`` in a fresh interpreter, median of three."""
    times = []
    for _ in range(3):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def store_session(session: Session) -> None:
    warm = StoreWarm(session)
    warm.start_server(traced=False)
    ready()
    try:
        if session.args.role == "setup":
            return
        if not session.args.trace:
            warm.phase(session.args.seconds, traced=False)
            return
        short = min(session.args.seconds, 5.0)
        untraced = warm.phase(short, traced=False)
        warm.server.stop()
        warm.start_server(traced=True)
        session.start_tracing()
        traced = warm.phase(short, traced=True)
        status, body = warm.server.get("/api/status")
        cache = json.loads(body)["cache"] if status == 200 else {}
        warm.server.stop()
        for path in sorted(session.cache.glob("trace-*.json")):
            session.tracer.merge(json.loads(path.read_text()))
        session.finish_tracing(traced / untraced - 1.0, {
            "import_s": import_seconds(),
            "lru_hit_ratio": (cache["lru_hits"] / cache["hits"]
                              if cache.get("hits") else 0.0),
        })
    finally:
        warm.server.stop()


def store_expected(session: Session) -> dict:
    store_prepare(session)
    warm = StoreWarm(session)
    warm.headline = None  # pin what the code prints now, not the old file
    warm.figure(traced=False, index=0)
    return {"headline": warm.headline}


# -- entry point -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=(
        "full_detail", "sampled", "grid_cold", "store_warm"))
    parser.add_argument("--role", default="session", choices=(
        "session", "setup", "prepare", "expected"))
    parser.add_argument("--cache", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--baseline", type=float, default=None,
                        help="untraced seconds of a traced grid_cold run")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    # Adaptive sampling warns about phases that end with open confidence
    # targets; the benchmark reports accuracy itself.
    from repro.errors import SamplingWarning

    warnings.simplefilter("ignore", SamplingWarning)
    session = Session(args)
    workload = args.workload
    if args.role == "expected":
        if workload == "grid_cold":
            grid_session(session)
            result = {"digest": session.digests["grid"]}
        elif workload == "store_warm":
            result = store_expected(session)
        else:
            result = sweep_expected(session, workload == "sampled")
        result["scale"] = asdict(session.scale)
        print(RESULT + json.dumps(result), flush=True)
        return 0
    if args.role == "prepare":
        store_prepare(session)
    elif workload == "full_detail":
        sweep_session(session, sampled=False)
    elif workload == "sampled":
        sweep_session(session, sampled=True)
    elif workload == "grid_cold":
        grid_session(session)
    else:
        store_session(session)
    print(RESULT + json.dumps(session.payload()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
