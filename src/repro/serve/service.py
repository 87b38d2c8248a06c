"""The serve front end's core: jobs, warm lookups, figure rendering.

:class:`ReproService` is the piece of ``repro serve`` that knows the
simulator; the HTTP layer (:mod:`repro.serve.http`) only translates
requests into the methods here.  The design splits traffic into two
classes:

* **warm reads** (:meth:`ReproService.lookup`, a warm
  :meth:`ReproService.figure`) are answered directly from the shared
  :class:`~repro.experiments.engine.ResultStore` — with its in-process
  LRU over deserialized results, a repeated query never touches disk or
  JSON decode.  Figures are rendered through a ``jobs=1`` engine, so a
  fully warm request spawns **no worker process** and performs **zero
  simulations**: the millions-of-users story is many clients hitting one
  warm store that N shard hosts filled.
* **cold work** is submitted as a *job* (:meth:`ReproService.submit`):
  it runs on a background thread (the engine inside may fan out its own
  process pool), publishes progress events the HTTP layer streams as
  NDJSON, and lands its results in the same store — warming it for every
  later read.

Everything here is stdlib: asyncio for orchestration, one
``ThreadPoolExecutor`` lane for blocking engine calls.  Event mutation
happens only on the event loop thread (worker threads publish through
``loop.call_soon_threadsafe``), so streamers never race publishers.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, AsyncIterator, Callable

from repro.errors import ExperimentError
from repro.experiments.engine import (
    ResultStore,
    default_jobs,
    resolve_run_options,
    run_key,
)
from repro.experiments.figures import FIGURE_GENERATORS
from repro.experiments.runner import ExperimentRunner
from repro.models.configs import MODEL_NAMES, model_config
from repro.workloads.suite import ALL_APPS, application

#: Job kinds the service accepts.
JOB_KINDS = ("sweep", "figure")


class ServiceError(Exception):
    """A client-attributable service failure (maps to an HTTP status)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Job:
    """One submitted unit of background work and its event log.

    ``events`` grows append-only on the event loop thread; streamers
    iterate it by index and wait on ``_next`` (rotated per publish) for
    more, so any number of subscribers replay and follow one job.
    """

    id: str
    kind: str
    params: dict
    state: str = "queued"
    created: float = field(default_factory=time.time)
    events: list[dict] = field(default_factory=list)
    result: dict | None = None
    error: str | None = None
    _next: asyncio.Event = field(default_factory=asyncio.Event, repr=False)

    def publish(self, event: dict) -> None:
        """Append an event and wake every streamer (loop thread only)."""
        self.events.append(event)
        waiter, self._next = self._next, asyncio.Event()
        waiter.set()

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def summary(self) -> dict:
        """The job as the status endpoints report it."""
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "params": self.params,
            "events": len(self.events),
        }
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _as_model_list(raw: Any) -> list[str]:
    if raw is None:
        return list(MODEL_NAMES)
    if isinstance(raw, str):
        raw = [name.strip() for name in raw.split(",") if name.strip()]
    models = list(raw)
    unknown = [m for m in models if m not in MODEL_NAMES]
    if unknown:
        raise ServiceError(
            400, f"unknown model(s) {', '.join(map(str, unknown))}; "
                 f"known: {', '.join(MODEL_NAMES)}"
        )
    if not models:
        raise ServiceError(400, "empty model list")
    return models


def _as_apps(raw: Any) -> int | None | list[str]:
    """An app spec: a count, ``"all"``, or an explicit name list."""
    if raw is None:
        return None
    if isinstance(raw, list):
        for name in raw:
            if name not in ALL_APPS:
                raise ServiceError(400, f"unknown application {name!r}")
        if not raw:
            raise ServiceError(400, "empty application list")
        return list(raw)
    text = str(raw).strip().lower()
    if text in ("all", "full", "44"):
        return None
    try:
        count = int(text)
    except ValueError:
        raise ServiceError(
            400, f"bad apps spec {raw!r} (count, 'all', or a name list)"
        ) from None
    if count < 1:
        raise ServiceError(400, f"apps count must be >= 1, got {count}")
    return count


def _as_length(raw: Any, default: int = 20_000) -> int:
    if raw is None:
        return default
    try:
        length = int(raw)
    except (TypeError, ValueError):
        raise ServiceError(400, f"bad length {raw!r}") from None
    if length < 1:
        raise ServiceError(400, f"length must be >= 1, got {length}")
    return length


class ReproService:
    """Job orchestration and warm-store reads behind ``repro serve``.

    One service owns one :class:`ResultStore` (LRU-backed) that every
    request path shares: shard hosts fill it (directly or via
    ``repro shard merge``), jobs extend it, reads drain it.
    ``worker_threads`` bounds concurrently *running* jobs (default 1 —
    a job may already saturate the machine with its own process pool);
    queued jobs wait their turn inside the executor.
    """

    def __init__(
        self,
        *,
        store_root: str | Path | None = None,
        lru: int = 256,
        jobs: int | None = None,
        worker_threads: int = 1,
    ):
        self.store = ResultStore(store_root, lru=lru)
        self.jobs_width = jobs if jobs is not None else default_jobs()
        self.started = time.time()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, worker_threads),
            thread_name_prefix="repro-job",
        )
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._ids = itertools.count(1)

    def close(self) -> None:
        """Stop accepting work and release the worker threads."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- warm reads -------------------------------------------------------

    def lookup(self, model: str, app: str, length: Any,
               sampling: str | None) -> dict:
        """A single cached result, or a 404 :class:`ServiceError`.

        Never simulates: the GET path answers from the warm store (LRU
        first, disk second) or tells the client how to warm it.
        """
        if model not in MODEL_NAMES:
            raise ServiceError(
                400, f"unknown model {model!r}; known: "
                     f"{', '.join(MODEL_NAMES)}"
            )
        if app not in ALL_APPS:
            raise ServiceError(400, f"unknown application {app!r}")
        options = resolve_run_options(sampling or "off", None)
        run_length = _as_length(length)
        key = run_key(model_config(model), app, run_length, options)
        lru0 = self.store.lru_hits
        result = self.store.load(key)
        if result is None:
            raise ServiceError(
                404, f"no stored result for {model}/{app} at length "
                     f"{run_length}; POST /api/jobs to compute it"
            )
        return {
            "model": model,
            "app": app,
            "length": run_length,
            "sampling": ("off" if options.sampling is None
                         else options.sampling.fingerprint()),
            "key": key,
            "lru": self.store.lru_hits > lru0,
            "metrics": {
                "ipc": round(result.ipc, 6),
                "cycles": result.cycles,
                "energy": round(result.total_energy, 3),
                "power": round(result.point.power, 6),
                "cmpw": round(result.point.cmpw, 6),
            },
            "result": result.to_dict(),
        }

    def status(self) -> dict:
        """Service + store health for ``GET /api/status``."""
        info = self.store.info()
        return {
            "uptime": round(time.time() - self.started, 3),
            "store": {
                "path": str(info.path),
                "entries": info.entries,
                "bytes": info.total_bytes,
                "schema": info.schema_version,
            },
            "cache": {
                "hits": self.store.hits,
                "misses": self.store.misses,
                "lru_hits": self.store.lru_hits,
            },
            "jobs": [job.summary() for job in self._jobs.values()],
        }

    # -- figures ----------------------------------------------------------

    def _runner(self, params: dict) -> ExperimentRunner:
        """A per-request runner sharing the service's LRU-backed store.

        ``jobs=1`` by construction: request-path engines never spawn a
        worker pool, so a warm request costs store reads only and a cold
        figure computes inline on the job thread.
        """
        options = resolve_run_options(params.get("sampling") or "off")
        apps = _as_apps(params.get("apps"))
        runner = ExperimentRunner(
            length=_as_length(params.get("length")),
            max_apps=apps if not isinstance(apps, list) else None,
            jobs=1,
            cache=True,
            cache_dir=self.store.root,
            sampling=options.sampling,
        )
        # Swap in the shared store so the request benefits from (and
        # feeds) the in-process LRU instead of a cold per-request view.
        runner.engine.store = self.store
        return runner

    def _render_figure(self, name: str, params: dict) -> dict:
        if name not in FIGURE_GENERATORS:
            raise ServiceError(
                404, f"unknown figure {name!r}; known: "
                     f"{', '.join(FIGURE_GENERATORS)}"
            )
        runner = self._runner(params)
        hits0 = self.store.hits
        lru0 = self.store.lru_hits
        figure = FIGURE_GENERATORS[name](runner)
        return {
            "figure": name,
            "text": figure.format(),
            "simulated": runner.engine.simulations_run,
            "from_store": self.store.hits - hits0,
            "from_lru": self.store.lru_hits - lru0,
        }

    async def figure(self, name: str, params: dict) -> dict:
        """Render one figure; warm grids never simulate or fork."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor, self._render_figure, name, params
        )

    # -- jobs -------------------------------------------------------------

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(404, f"no such job {job_id!r}") from None

    async def submit(self, spec: Any) -> Job:
        """Validate and enqueue one background job."""
        if not isinstance(spec, dict):
            raise ServiceError(400, "job spec must be a JSON object")
        kind = spec.get("kind")
        if kind not in JOB_KINDS:
            raise ServiceError(
                400, f"job kind must be one of {', '.join(JOB_KINDS)}, "
                     f"got {kind!r}"
            )
        params = {k: v for k, v in spec.items() if k != "kind"}
        # Validate the cheap parts up front so a bad request fails at
        # submit time, not minutes later inside the job.
        _as_length(params.get("length"))
        _as_apps(params.get("apps"))
        if kind == "sweep":
            _as_model_list(params.get("models"))
        elif params.get("figure") not in FIGURE_GENERATORS:
            raise ServiceError(
                400, f"figure job needs a known 'figure' name; known: "
                     f"{', '.join(FIGURE_GENERATORS)}"
            )
        job = Job(id=f"job-{next(self._ids)}", kind=kind, params=params)
        self._jobs[job.id] = job
        loop = asyncio.get_running_loop()
        job.state = "running"
        job.publish({"event": "state", "state": "running"})

        def progress(done: int, total: int, label: str, source: str) -> None:
            loop.call_soon_threadsafe(job.publish, {
                "event": "progress", "done": done, "total": total,
                "label": label, "source": source,
            })

        def finish(task: "asyncio.Future") -> None:
            if task.cancelled():
                job.state = "failed"
                job.error = "cancelled"
            elif task.exception() is not None:
                exc = task.exception()
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
            else:
                job.state = "done"
                job.result = task.result()
            event = {"event": job.state}
            if job.result is not None:
                event["result"] = job.result
            if job.error is not None:
                event["error"] = job.error
            job.publish(event)

        task = loop.run_in_executor(
            self._executor, self._execute, job, progress
        )
        asyncio.ensure_future(task).add_done_callback(finish)
        return job

    def _execute(self, job: Job,
                 progress: Callable[[int, int, str, str], None]) -> dict:
        """Run one job to completion on the worker thread."""
        if job.kind == "figure":
            return self._render_figure(job.params["figure"], job.params)
        return self._execute_sweep(job, progress)

    def _execute_sweep(self, job: Job, progress) -> dict:
        params = job.params
        models = _as_model_list(params.get("models"))
        apps_spec = _as_apps(params.get("apps"))
        options = resolve_run_options(params.get("sampling") or "off")
        runner = ExperimentRunner(
            length=_as_length(params.get("length")),
            max_apps=apps_spec if not isinstance(apps_spec, list) else None,
            jobs=int(params.get("jobs") or self.jobs_width),
            cache=True,
            cache_dir=self.store.root,
            progress=progress,
            sampling=options.sampling,
        )
        runner.engine.store = self.store
        apps = (
            [application(name) for name in apps_spec]
            if isinstance(apps_spec, list) else runner.applications()
        )
        hits0 = self.store.hits
        try:
            grid = runner.grid(models, apps)
        except ExperimentError as exc:
            raise ServiceError(500, f"sweep failed: {exc}") from exc
        rows = [
            {
                "model": model,
                "app": app.name,
                "suite": app.suite,
                "ipc": round(result.ipc, 6),
                "energy": round(result.total_energy, 3),
                "power": round(result.point.power, 6),
                "cmpw": round(result.point.cmpw, 6),
            }
            for model in models
            for app, result in zip(apps, grid[model])
        ]
        return {
            "cells": len(rows),
            "simulated": runner.engine.simulations_run,
            "from_store": self.store.hits - hits0,
            "rows": rows,
        }

    # -- event streaming --------------------------------------------------

    async def stream(self, job: Job) -> AsyncIterator[dict]:
        """Replay a job's events, then follow until it finishes.

        Safe for any number of concurrent subscribers: events are
        appended only on the loop thread, and each subscriber keeps its
        own cursor.
        """
        index = 0
        while True:
            while index < len(job.events):
                yield job.events[index]
                index += 1
            if job.finished:
                return
            waiter = job._next
            await waiter.wait()
