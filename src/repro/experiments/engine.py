"""Parallel experiment engine with a persistent result store.

Every figure and table of the evaluation is a view over the same
(application x model) grid, and one grid cell — a simulation run — is a
pure function of (model configuration, application, run length, generator
seed).  That purity buys two things:

* **fan-out**: cells evaluate in parallel on a
  :class:`~concurrent.futures.ProcessPoolExecutor` with per-run crash
  retry and a stall timeout (:class:`ExperimentEngine`);
* **persistence**: finished cells land in a content-keyed on-disk JSON
  store (:class:`ResultStore`), so a repeated sweep/figure/benchmark
  invocation re-reads results instead of re-simulating.

The store key is a SHA-256 digest over the full model configuration
(``repr`` of the frozen :class:`~repro.core.config.MachineConfig`
dataclass tree), the application name, its generator seed, the run length,
:data:`~repro.core.results.SCHEMA_VERSION` and the run regime carried by
:class:`~repro.core.simulator.RunOptions` (sampling fingerprint, prewarm
when disabled; the ``backend`` option selects nothing and is excluded) —
any change to a model parameter, a workload profile seed or the result
schema silently keys to fresh entries, so stale records can never be
served.

A third property — every model of an application consumes the
bit-identical dynamic stream — drives the scheduler: missing cells are
grouped into per-application **chunks**, and every chunk, serial or
pooled, runs through one :class:`ChunkRunner`.  It resolves the
application's compiled trace artifact
(:class:`~repro.workloads.tracefile.ArtifactCache`), its shared segment
partition and a :class:`~repro.core.simulator.ColdPlanCache` over it once,
and replays them for every model in the chunk (models with equal fetch
parameters share cold plans through the cache).
The engine owns one runner for in-process cells; each pool worker, a
reused process, keeps its own, so the runner's memos also amortise
simulators and artifacts across everything a worker executes.

Scale knobs (application count, run length, worker count, cache on/off,
sampling regime) are unified in the :class:`Scale` dataclass, built from
CLI arguments; :func:`resolve_run_options` is the single seam where
sampling/backend specs become a :class:`~repro.core.simulator.RunOptions`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.cache import DiskCache
from repro.core.config import MachineConfig
from repro.core.results import SCHEMA_VERSION, SimulationResult
from repro.core.simulator import ColdPlanCache, ParrotSimulator, RunOptions
from repro.errors import ExperimentError
from repro.models.configs import MODEL_NAMES, model_config
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import app_seed, application
from repro.workloads.tracefile import ArtifactCache, TraceArtifact

#: Environment variable setting the engine's stall timeout in seconds.
ENV_TIMEOUT = "REPRO_BENCH_TIMEOUT"

DEFAULT_APPS = 15
DEFAULT_LENGTH = 20_000

#: One grid cell: (model name, application name).
Task = tuple[str, str]
#: Progress callback: (completed, total, "model/app", source) where source
#: is ``"run"`` for a fresh simulation and ``"store"`` for a disk hit.
ProgressFn = Callable[[int, int, str, str], None]


def default_jobs() -> int:
    """Worker count: the usable cores.

    "Usable" respects the process CPU-affinity mask
    (``os.sched_getaffinity``) where the platform exposes one: a
    containerized CI shard pinned to 2 of a 64-core host gets 2 workers
    instead of oversubscribing 64.  Platforms without affinity (macOS,
    Windows) fall back to ``os.cpu_count()``.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return os.cpu_count() or 1


def parse_apps(text: str) -> int | None:
    """Parse an application-count spec; ``all``/``full``/``44`` -> None."""
    if str(text).lower() in ("all", "full", "44"):
        return None
    count = int(text)
    if count < 1:
        raise ValueError(f"application count must be >= 1, got {count}")
    return count


def parse_backend(spec: str | None) -> ExecutionBackend:
    """Parse an execution-backend spec (``scalar``/``compiled``).

    ``None`` or an empty string selects ``SCALAR``.  Both values run the
    one executor; the spec is still parsed (and an unknown one rejected)
    because ``repro ... --backend compiled`` must keep working until
    ROADMAP item 2, step 1 retires the option.
    """
    if spec is None:
        return ExecutionBackend.SCALAR
    text = str(spec).strip().lower()
    if not text:
        return ExecutionBackend.SCALAR
    try:
        return ExecutionBackend(text)
    except ValueError:
        choices = ", ".join(b.value for b in ExecutionBackend)
        raise ValueError(
            f"unknown execution backend {spec!r}; choose from: {choices}"
        ) from None


def resolve_run_options(
    sampling_spec: str | None = None,
    backend_spec: str | None = None,
) -> RunOptions:
    """Parse user-facing regime specs into a :class:`RunOptions`.

    The single spec-parsing seam shared by the CLI and ``repro serve``:
    ``sampling_spec`` follows
    :meth:`~repro.sampling.config.SamplingConfig.parse` and
    ``backend_spec`` follows :func:`parse_backend`; ``None`` selects full
    detail.
    """
    return RunOptions(
        sampling=SamplingConfig.parse(sampling_spec),
        backend=parse_backend(backend_spec),
    )


@dataclass(frozen=True, slots=True)
class Scale:
    """The unified scale knobs of one experiment-grid evaluation.

    ``apps`` is the balanced application-subset size (``None`` = the full
    44-app roster), ``length`` the instructions simulated per application,
    ``jobs`` the process-pool width, ``cache`` whether runs are served
    from / written to the persistent result store, ``sampling`` the
    sampled-simulation regime (``None`` = full detail).
    """

    apps: int | None = DEFAULT_APPS
    length: int = DEFAULT_LENGTH
    jobs: int = field(default_factory=default_jobs)
    cache: bool = True
    sampling: SamplingConfig | None = None

    @classmethod
    def from_args(cls, args: Any) -> "Scale":
        """Resolve from parsed CLI arguments (``--apps/--length/--jobs/
        --no-cache/--sampling``); unset ``--jobs`` means all usable
        cores."""
        jobs = getattr(args, "jobs", None)
        no_cache = bool(getattr(args, "no_cache", False))
        return cls(
            apps=parse_apps(args.apps),
            length=args.length,
            jobs=default_jobs() if jobs is None else jobs,
            cache=not no_cache,
            sampling=SamplingConfig.parse(getattr(args, "sampling", None)),
        )


# -- the persistent result store ---------------------------------------------


def config_fingerprint(config: MachineConfig) -> str:
    """Deterministic text fingerprint of a full machine configuration.

    ``MachineConfig`` is a frozen dataclass of frozen dataclasses and
    scalars, so its ``repr`` enumerates every parameter in declaration
    order — any microarchitectural change alters the fingerprint.
    """
    return repr(config)


def run_key(
    config: MachineConfig,
    app_name: str,
    length: int,
    options: "SamplingConfig | RunOptions | None" = None,
) -> str:
    """Content key of one simulation run in the result store.

    The key material carries the simulation regime — ``sampling=off`` for
    full detail, the full :meth:`~repro.sampling.config.SamplingConfig.
    fingerprint` otherwise — so a sampled estimate can never be served
    where a full-detail result was asked for (or vice versa), and two
    different sampling configurations never collide either.

    ``options`` accepts either a bare :class:`SamplingConfig` (historical
    call shape) or a full :class:`RunOptions`.  Of the run options, only
    the result-affecting regime knobs enter the key: sampling always,
    prewarm when disabled.  The *backend* option is excluded: both of
    its values run the one executor.
    """
    prewarm = True
    if isinstance(options, RunOptions):
        sampling = options.sampling
        prewarm = options.prewarm
    else:
        sampling = options
    parts = [
        f"schema={SCHEMA_VERSION}",
        f"model={config_fingerprint(config)}",
        f"app={app_name}",
        f"seed={app_seed(app_name)}",
        f"length={length}",
        f"sampling={'off' if sampling is None else sampling.fingerprint()}",
    ]
    if not prewarm:
        parts.append("prewarm=0")
    material = "|".join(parts)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _result_digest(payload: dict) -> str:
    """Canonical content digest of one stored record's result payload."""
    material = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


@dataclass
class MergeReport:
    """Audit trail of one :meth:`ResultStore.merge_from` pass.

    ``copied`` records were new to the destination, ``identical`` existed
    with a byte-equal result payload (skipped — the merge is idempotent),
    ``conflicts`` lists keys that existed with a *different* payload
    (skipped too — the destination wins — but surfaced for audit: with
    content-derived keys a conflict means corruption or a schema lie),
    and ``quarantined`` counts source records that failed to parse or
    whose embedded key contradicted their filename (deleted best-effort).
    """

    source: Path
    copied: int = 0
    identical: int = 0
    conflicts: list[str] = field(default_factory=list)
    quarantined: int = 0

    @property
    def scanned(self) -> int:
        """Source records examined in this pass."""
        return (self.copied + self.identical + len(self.conflicts)
                + self.quarantined)


class ResultStore(DiskCache):
    """Content-keyed persistent store of simulation results.

    One JSON record per run at ``<root>/<k[:2]>/<k>.json`` (default root
    ``$REPRO_CACHE_DIR``), written, read, swept and listed through the
    shared :class:`~repro.cache.DiskCache` contract: atomic writes, misses
    on absent records, and undecodable records quarantined.

    ``lru`` > 0 adds an in-process LRU over deserialized results, so a
    repeated ``load`` of a warm key skips disk and JSON decode entirely
    (the serve front end's hot path).  LRU hits still count as ``hits``;
    they are additionally tallied in ``lru_hits``.
    """

    name = "store"
    suffix = ".json"
    schema_version = SCHEMA_VERSION

    def __init__(self, root: str | Path | None = None, *, lru: int = 0):
        super().__init__(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.lru_hits = 0
        self._lru_limit = max(0, int(lru))
        self._lru: OrderedDict[str, SimulationResult] = OrderedDict()
        self._lru_lock = threading.Lock()

    def decode(self, path: Path) -> SimulationResult:
        return SimulationResult.from_dict(json.loads(path.read_text())["result"])

    def _lru_get(self, key: str) -> SimulationResult | None:
        if not self._lru_limit:
            return None
        with self._lru_lock:
            result = self._lru.get(key)
            if result is not None:
                self._lru.move_to_end(key)
            return result

    def _lru_put(self, key: str, result: SimulationResult) -> None:
        if not self._lru_limit:
            return
        with self._lru_lock:
            self._lru[key] = result
            self._lru.move_to_end(key)
            while len(self._lru) > self._lru_limit:
                self._lru.popitem(last=False)

    def load(self, key: str) -> SimulationResult | None:
        """The stored result under ``key``, or ``None`` on any miss."""
        cached = self._lru_get(key)
        if cached is not None:
            self.hits += 1
            self.lru_hits += 1
            return cached
        result = self.read(key)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        self._lru_put(key, result)
        return result

    def store(self, key: str, result: SimulationResult) -> None:
        """Persist ``result`` under ``key`` (atomic, last writer wins)."""
        self._write_record(key, {
            "key": key,
            "model": result.model_name,
            "app": result.app_name,
            "result": result.to_dict(),
        })
        self._lru_put(key, result)
        self.writes += 1

    def _write_record(self, key: str, record: dict) -> None:
        text = json.dumps(record, sort_keys=True)
        self.write(key, lambda tmp: tmp.write_text(text))

    def clear(self) -> int:
        """Delete every stored record and empty the LRU; returns the
        number of records removed."""
        removed = super().clear()
        with self._lru_lock:
            self._lru.clear()
        return removed

    # -- scale-out merge ---------------------------------------------------

    def merge_from(self, source: "ResultStore | str | Path",
                   *, quarantine: bool = True) -> MergeReport:
        """Merge another store's records into this one, idempotently.

        Records are matched by run key (the filename).  A key new to this
        store is copied (atomic write); a key present in both with a
        byte-identical result payload is skipped, so re-running a merge —
        or merging A into B and B into A — converges on the same store.
        A key present in both with a *different* payload is a conflict:
        the destination record wins (skip-on-conflict) and the key lands
        in :attr:`MergeReport.conflicts` for audit — run keys are derived
        from the full content of the run request, so a genuine conflict
        means a corrupt record or an implementation that lied about its
        schema, never a benign difference.

        Source records that fail to parse, decode to no result, or carry
        an embedded key contradicting their filename are quarantined:
        counted in :attr:`MergeReport.quarantined` and (with
        ``quarantine=True``) deleted from the source so the next merge
        pass does not trip over them again.
        """
        src = source if isinstance(source, ResultStore) else ResultStore(source)
        report = MergeReport(source=src.root)
        before = src.quarantined
        for key in src.keys():
            record = src.read(key, _decode_record, quarantine=quarantine)
            if record is None:
                continue
            existing = self.read(key, _decode_record)
            if existing is None:
                self._write_record(key, record)
                report.copied += 1
            elif (_result_digest(existing["result"])
                  == _result_digest(record["result"])):
                report.identical += 1
            else:
                report.conflicts.append(key)
        report.quarantined = src.quarantined - before
        return report


def _decode_record(path: Path) -> dict:
    """A whole stored record, checked against its filename and schema."""
    record = json.loads(path.read_text())
    key = path.name[:-len(ResultStore.suffix)]
    if record.get("key") != key:
        raise ValueError(
            f"embedded key {record.get('key')!r} contradicts filename {key!r}"
        )
    SimulationResult.from_dict(record["result"])
    return record


# -- the chunk runner ---------------------------------------------------------

#: Artifact entries a chunk runner keeps alive.  One decoded instruction
#: list plus its segment partition is the only per-app state worth
#: holding, and chunk scheduling gives every runner app affinity.
_ARTIFACT_LIMIT = 2


@dataclass
class ChunkRun:
    """What one :meth:`ChunkRunner.run` call produced: one result per cell
    in cell order, plus the artifact-cache hits and compiles it caused."""

    results: list[SimulationResult]
    artifact_hits: int = 0
    artifact_compiles: int = 0


class ChunkRunner:
    """The one executor behind every simulated grid cell.

    A chunk is a list of cells sharing one application (see
    ``ExperimentEngine._plan_chunks``).  The runner resolves the app's
    compiled trace artifact once and replays it for every model of the
    chunk.  In full-detail mode it also shares the artifact's segment
    partition, which is model-independent (the selector segments the raw
    dynamic stream before any model state exists), and a
    :class:`~repro.core.simulator.ColdPlanCache` bound to that partition;
    sampled runs drive their own interval schedule off the stream.  The
    plan cache lives and dies with its artifact entry, so plans never
    leak across applications.

    Simulators (one per model: ``ParrotSimulator`` keeps no state across
    runs) and the two most recent artifact entries are memoised across
    calls.  An :class:`ExperimentEngine` owns one
    runner for its in-process cells; each pool worker keeps one per
    artifact root (:func:`simulate_chunk`).
    """

    def __init__(self, artifact_root: str | Path | None = None):
        self.artifacts = ArtifactCache(artifact_root)
        self._simulators: dict[str, ParrotSimulator] = {}
        self._entries: OrderedDict[tuple[str, int], list] = OrderedDict()

    def run(
        self,
        cells: Sequence[Task],
        length: int,
        sampling: SamplingConfig | None = None,
    ) -> ChunkRun:
        """Simulate ``cells`` at ``length`` instructions, in order."""
        hits, compiles = self.artifacts.hits, self.artifacts.compiles
        results = []
        for model_name, app_name in cells:
            artifact, segments, plans = self._artifact(
                app_name, length, want_segments=sampling is None
            )
            simulator = self._simulators.get(model_name)
            if simulator is None:
                simulator = ParrotSimulator(model_config(model_name))
                self._simulators[model_name] = simulator
            results.append(simulator.simulate(
                artifact,
                RunOptions(sampling=sampling, segments=segments,
                           cold_plans=plans),
            ))
        return ChunkRun(results, self.artifacts.hits - hits,
                        self.artifacts.compiles - compiles)

    def _artifact(
        self, app_name: str, length: int, *, want_segments: bool
    ) -> tuple[TraceArtifact, list | None, ColdPlanCache | None]:
        """The (artifact, shared segments, plan cache) entry of one app."""
        key = (app_name, length)
        entry = self._entries.get(key)
        if entry is None:
            artifact = self.artifacts.get_or_compile(
                application(app_name), length
            )
            entry = [artifact, None, None]
            self._entries[key] = entry
            while len(self._entries) > _ARTIFACT_LIMIT:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        if not want_segments:
            return entry[0], None, None
        if entry[1] is None:
            entry[1] = entry[0].segments()
            entry[2] = ColdPlanCache(entry[1])
        return entry[0], entry[1], entry[2]


def _run_cells(
    runner: ChunkRunner,
    cells: Sequence[Task],
    length: int,
    sampling: SamplingConfig | None,
    task_fn: Callable[..., dict] | None,
) -> ChunkRun:
    """One chunk through ``runner``, or through a custom ``task_fn`` (test
    harnesses) called per cell as ``task_fn(model, app, length[,
    sampling])`` and returning a serialized result."""
    if task_fn is None:
        return runner.run(cells, length, sampling)
    extra = () if sampling is None else (sampling,)
    return ChunkRun([
        SimulationResult.from_dict(task_fn(model, app, length, *extra))
        for model, app in cells
    ])


#: Each pool worker's chunk runners by artifact root.  Workers are reused
#: processes, so the runner's memos amortise simulators and artifacts
#: across every chunk a worker ever executes.
_WORKER_RUNNERS: dict[str | None, ChunkRunner] = {}


def simulate_chunk(
    cells: Sequence[Task],
    length: int,
    sampling: SamplingConfig | None = None,
    artifact_root: str | None = None,
    task_fn: Callable[..., dict] | None = None,
) -> dict:
    """Worker entry point: run one chunk of grid cells in one pool call.

    Runs the chunk through this worker's :class:`ChunkRunner` for
    ``artifact_root`` (or the custom ``task_fn``, whose exceptions
    propagate raw so the engine can attribute them) and serializes at the
    process boundary: returns ``{"results": [...], "artifact_hits": h,
    "artifact_compiles": c}`` with one ``SimulationResult.to_dict()``
    payload per cell — the format the result store persists — in cell
    order.
    """
    runner = _WORKER_RUNNERS.get(artifact_root)
    if runner is None:
        runner = _WORKER_RUNNERS[artifact_root] = ChunkRunner(artifact_root)
    run = _run_cells(runner, cells, length, sampling, task_fn)
    return {
        "results": [result.to_dict() for result in run.results],
        "artifact_hits": run.artifact_hits,
        "artifact_compiles": run.artifact_compiles,
    }


class ExperimentEngine:
    """Evaluate (application x model) grid cells, in parallel, cached.

    The engine owns the cross-cutting counters the harness and the
    acceptance tests read: ``cache_hits`` (runs served from the persistent
    store), ``simulations_run`` (runs actually simulated, in-process or
    in a worker) and ``artifact_hits``/``artifact_compiles`` (compiled
    trace artifacts loaded from disk or built, summed over every chunk).

    Serial and pool runs execute the same per-application chunks through
    the same :class:`ChunkRunner` (in-process: the engine's own
    ``runner``) and share one failure contract: an exception raised while
    simulating a chunk fails the grid with an
    :class:`~repro.errors.ExperimentError` naming the chunk's cells, the
    original exception chained as ``__cause__``.  On top of that the
    parallel path handles pool faults:

    * a crashed worker (``BrokenProcessPool``) triggers one pool rebuild
      and resubmission of the unfinished cells; a second crash raises
      :class:`~repro.errors.ExperimentError`;
    * a simulation failure also terminates the surviving workers, and is
      never retried (a deterministic simulator fails the same way again);
    * ``timeout`` bounds the wait for the *next* completion — if no run
      finishes within it the surviving workers are terminated and the
      grid fails (a deterministic simulator either finishes or is hung).

    Progress reported through ``progress`` is clamped monotonic across
    crash retries.
    """

    def __init__(
        self,
        length: int = DEFAULT_LENGTH,
        *,
        jobs: int = 1,
        store: ResultStore | None = None,
        timeout: float | None = None,
        progress: ProgressFn | None = None,
        task_fn: Callable[..., dict] | None = None,
        mp_context: Any | None = None,
        sampling: SamplingConfig | None = None,
        artifact_root: str | Path | None = None,
        # Selects nothing: both values run the one executor.  Kept because
        # the benchmark passes it; retires in ROADMAP item 2, step 1.
        backend: ExecutionBackend = ExecutionBackend.SCALAR,
        shard: str | None = None,
    ):
        if timeout is None:
            raw = os.environ.get(ENV_TIMEOUT, "").strip()
            timeout = float(raw) if raw else None
        self.length = length
        self.jobs = max(1, jobs)
        self.store = store
        self.timeout = timeout
        self.progress = progress
        self.task_fn = task_fn
        self.mp_context = mp_context
        self.sampling = sampling
        self.shard = shard
        self.runner = ChunkRunner(artifact_root)
        self.simulations_run = 0
        self.artifact_hits = 0
        self.artifact_compiles = 0
        self._configs: dict[str, MachineConfig] = {}
        self._reported_done = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Runs served from the persistent store instead of simulated."""
        return self.store.hits if self.store is not None else 0

    def _config(self, model_name: str) -> MachineConfig:
        if model_name not in MODEL_NAMES:
            raise ExperimentError(
                f"unknown model {model_name!r}; known: {MODEL_NAMES}"
            )
        if model_name not in self._configs:
            self._configs[model_name] = model_config(model_name)
        return self._configs[model_name]

    def _key(self, task: Task) -> str:
        model_name, app_name = task
        return run_key(self._config(model_name), app_name, self.length,
                       self.sampling)

    # -- execution ---------------------------------------------------------

    def run_one(self, model_name: str, app_name: str) -> SimulationResult:
        """One grid cell: store lookup, else an in-process simulation."""
        return self.run([(model_name, app_name)])[(model_name, app_name)]

    def run(self, tasks: Sequence[Task]) -> dict[Task, SimulationResult]:
        """Evaluate ``tasks``; returns ``{(model, app): result}``.

        Store hits are collected first; the remainder is simulated — on
        the process pool when ``jobs > 1`` and more than one cell is
        missing, in-process otherwise.
        """
        tasks = list(dict.fromkeys(tasks))
        for model_name, _ in tasks:
            self._config(model_name)  # validate names before simulating
        self._reported_done = 0
        results: dict[Task, SimulationResult] = {}
        missing: list[Task] = []
        for task in tasks:
            cached = self.store.load(self._key(task)) if self.store else None
            if cached is not None:
                results[task] = cached
                self._report(len(results), len(tasks), task, "store")
            else:
                missing.append(task)
        if missing:
            if self.jobs > 1 and len(missing) > 1:
                fresh = self._run_parallel(missing, done=len(results),
                                           total=len(tasks))
            else:
                fresh = self._run_serial(missing, done=len(results),
                                         total=len(tasks))
            for task, result in fresh.items():
                if self.store is not None:
                    self.store.store(self._key(task), result)
                results[task] = result
        return results

    def _report(self, done: int, total: int, task: Task, source: str,
                chunk: str = "") -> None:
        if self.progress is not None:
            # Reported progress is clamped monotonic: a pool-crash retry
            # replays its pass from the pre-crash count, and completed
            # work is never "un-done" from the caller's point of view.
            done = max(done, self._reported_done)
            self._reported_done = done
            label = f"{task[0]}/{task[1]}"
            if chunk:
                # The serial and parallel paths both annotate runs with
                # their chunk, so multi-host shard logs line up 1:1.
                label = f"{label} [{chunk}]"
            if self.shard:
                label = f"{self.shard}:{label}"
            self.progress(done, total, label, source)

    def _collect(self, chunk: list[Task], run: ChunkRun,
                 results: dict[Task, SimulationResult], *, done: int,
                 total: int, tag: str) -> int:
        """Record one finished chunk; returns the new completion count."""
        self.artifact_hits += run.artifact_hits
        self.artifact_compiles += run.artifact_compiles
        for task, result in zip(chunk, run.results):
            results[task] = result
            self.simulations_run += 1
            done += 1
            self._report(done, total, task, "run", chunk=tag)
        return done

    def _run_serial(
        self, tasks: list[Task], *, done: int, total: int
    ) -> dict[Task, SimulationResult]:
        # One "worker": the pool's chunk plan, chunk runner, failure
        # contract and chunk-labelled progress, in-process.
        chunks = self._plan_chunks(tasks, 1)
        results: dict[Task, SimulationResult] = {}
        for index, chunk in enumerate(chunks):
            try:
                run = _run_cells(self.runner, chunk, self.length,
                                 self.sampling, self.task_fn)
            except Exception as exc:
                raise self._failure(chunk, exc) from exc
            done = self._collect(chunk, run, results, done=done, total=total,
                                 tag=f"chunk {index + 1}/{len(chunks)}")
        return results

    def _run_parallel(
        self, tasks: list[Task], *, done: int, total: int
    ) -> dict[Task, SimulationResult]:
        results: dict[Task, SimulationResult] = {}
        pending = list(tasks)
        start = done
        for attempt in (0, 1):
            try:
                done = self._pool_pass(pending, results, done=done, total=total)
                return results
            except BrokenProcessPool:
                pending = [t for t in tasks if t not in results]
                if not pending:
                    return results
                if attempt == 1:
                    raise ExperimentError(
                        f"worker pool crashed twice; {len(pending)} of "
                        f"{len(tasks)} runs unfinished"
                    )
                done = start + len(results)
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _plan_chunks(tasks: list[Task], jobs: int) -> list[list[Task]]:
        """Group cells into per-application chunks, balanced across jobs.

        One chunk = one pool call = one application, so a worker resolves
        the app's artifact and segment partition once per chunk.  If that
        yields fewer chunks than workers, the largest chunks are split in
        half (still single-app) until every worker has something to do —
        worker-affinity matters less than keeping the pool saturated.
        """
        by_app: dict[str, list[Task]] = {}
        for task in tasks:
            by_app.setdefault(task[1], []).append(task)
        chunks = list(by_app.values())
        while len(chunks) < min(jobs, len(tasks)):
            largest = max(range(len(chunks)), key=lambda i: len(chunks[i]))
            chunk = chunks[largest]
            if len(chunk) < 2:
                break
            mid = len(chunk) // 2
            chunks[largest] = chunk[:mid]
            chunks.append(chunk[mid:])
        return chunks

    @staticmethod
    def _failure(chunk: list[Task], exc: Exception) -> ExperimentError:
        """The grid failure for a chunk whose simulation raised ``exc``."""
        if len(chunk) == 1:
            label = f"{chunk[0][0]}/{chunk[0][1]}"
        else:
            models = ", ".join(model for model, _ in chunk)
            label = f"{chunk[0][1]} x [{models}]"
        return ExperimentError(
            f"simulation of {label} failed: {type(exc).__name__}: {exc}"
        )

    def _pool_pass(
        self,
        tasks: list[Task],
        results: dict[Task, SimulationResult],
        *,
        done: int,
        total: int,
    ) -> int:
        chunks = self._plan_chunks(tasks, self.jobs)
        workers = min(self.jobs, len(chunks))
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=self.mp_context
        ) as pool:
            futures: dict[Future, tuple[str, list[Task]]] = {
                pool.submit(
                    simulate_chunk, chunk, self.length, self.sampling,
                    artifact_root=str(self.runner.artifacts.root),
                    task_fn=self.task_fn,
                ): (f"chunk {index + 1}/{len(chunks)}", chunk)
                for index, chunk in enumerate(chunks)
            }
            pending = set(futures)
            while pending:
                finished, pending = wait(
                    pending, timeout=self.timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not finished:
                    self._terminate(pool)
                    abandoned = sum(len(futures[f][1]) for f in pending)
                    raise ExperimentError(
                        f"no simulation finished within {self.timeout}s; "
                        f"{abandoned} runs abandoned"
                    )
                broken: BrokenProcessPool | None = None
                for future in finished:
                    tag, chunk = futures[future]
                    try:
                        payload = future.result()
                    except BrokenProcessPool as exc:
                        # Record the batch's surviving results first; the
                        # crash-retry logic in _run_parallel resubmits only
                        # what is genuinely unfinished.
                        broken = exc
                        continue
                    except Exception as exc:
                        # Not a pool crash: a real simulation failure.
                        # Stop the survivors before failing the grid.
                        self._terminate(pool)
                        raise self._failure(chunk, exc) from exc
                    run = ChunkRun(
                        [SimulationResult.from_dict(cell)
                         for cell in payload["results"]],
                        payload["artifact_hits"],
                        payload["artifact_compiles"],
                    )
                    done = self._collect(chunk, run, results, done=done,
                                         total=total, tag=tag)
                if broken is not None:
                    raise broken
        return done

    @staticmethod
    def _terminate(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool whose workers are hung (timeout path)."""
        # Snapshot first: shutdown() drops the executor's process table.
        processes = dict(getattr(pool, "_processes", None) or {})
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes.values():
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass
