"""Scale-out grid sharding: plan, execute and merge across hosts.

The engine (:mod:`repro.experiments.engine`) parallelizes one grid on one
machine's process pool; this module is the horizontal layer above it.  An
(application x model) grid is partitioned into N deterministic,
content-keyed **shards** — work units small enough for independent hosts
or CI jobs — each of which executes against its *own*
:class:`~repro.experiments.engine.ResultStore` and artifact cache, and
the stores are then merged by run key.

Three properties make the whole scheme safe by construction:

* **determinism** — :func:`partition_tasks` is a pure function of the
  cell list and the shard count (app-affine LPT with a balancing
  rebalance pass), so every host that loads the same plan agrees on what
  shard ``i`` contains;
* **content addressing** — every cell's
  :func:`~repro.experiments.engine.run_key` is embedded in the plan and
  folded into the plan digest, so a host whose model configs, schema
  version or sampling regime drifted from the planner's *cannot* execute
  the plan (digest verification fails on load), and two hosts can never
  write different results under one key without it being corruption;
* **idempotent merge** —
  :meth:`~repro.experiments.engine.ResultStore.merge_from` copies new
  keys, skips byte-identical ones and skips-but-audits conflicts, so
  merging is safe to re-run, safe to run in any order, and safe to race.

Typical two-host flow (see EXPERIMENTS.md for the full recipe)::

    repro shard plan --models all --apps 8 --length 20000 --shards 2 \
        --output plan.json
    # host A:
    REPRO_CACHE_DIR=/tmp/shard0 repro shard run plan.json --index 0
    # host B:
    REPRO_CACHE_DIR=/tmp/shard1 repro shard run plan.json --index 1
    # anywhere (after copying the shard stores back):
    repro shard merge --into ~/.cache/repro /tmp/shard0 /tmp/shard1 \
        --plan plan.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.core.results import SCHEMA_VERSION
from repro.errors import ExperimentError
from repro.experiments.engine import (
    ExperimentEngine,
    MergeReport,
    ProgressFn,
    ResultStore,
    Task,
    run_key,
)
from repro.models.configs import MODEL_NAMES, model_config
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import application, benchmark_suite

#: Version of the serialized plan format itself (not the result schema).
PLAN_VERSION = 1


# -- deterministic partitioning ----------------------------------------------


def partition_tasks(tasks: Sequence[Task], shards: int) -> list[list[Task]]:
    """Partition grid cells into ``shards`` balanced, app-affine lists.

    Cells of one application are kept together where possible (a shard
    resolves each application's compiled trace artifact once, exactly
    like the engine's per-app chunks), assigned largest-group-first to
    the least-loaded shard; a final rebalance pass moves individual
    cells from the heaviest to the lightest shard until loads differ by
    at most one cell, because a balanced partition — not affinity — is
    what bounds the fleet's wall clock (the slowest shard).

    Deterministic: equal inputs yield equal partitions on every host.
    Duplicate cells are dropped; empty shards are possible only when
    there are fewer cells than shards.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    tasks = list(dict.fromkeys(tasks))
    by_app: dict[str, list[Task]] = {}
    for task in tasks:
        by_app.setdefault(task[1], []).append(task)
    # Largest group first, ties broken by first appearance (stable sort).
    groups = sorted(by_app.values(), key=len, reverse=True)
    bins: list[list[Task]] = [[] for _ in range(shards)]
    for group in groups:
        target = min(range(shards), key=lambda i: (len(bins[i]), i))
        bins[target].extend(group)
    while True:
        hi = max(range(shards), key=lambda i: (len(bins[i]), -i))
        lo = min(range(shards), key=lambda i: (len(bins[i]), i))
        gap = len(bins[hi]) - len(bins[lo])
        if gap <= 1:
            return bins
        move = gap // 2
        bins[lo].extend(bins[hi][-move:])
        del bins[hi][-move:]


# -- the plan -----------------------------------------------------------------


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic, content-keyed partition of one experiment grid.

    The plan pins everything a shard's results depend on: the cell list
    per shard, the run length, the sampling regime, the ``backend``
    option and the result schema version.  :meth:`digest` additionally
    folds in every cell's run key — computed from the *local* model
    configurations — so :meth:`from_dict` on a host whose configs or
    schema differ from the planner's fails loudly instead of silently
    producing results that would conflict at merge time.
    """

    length: int
    shards: tuple[tuple[Task, ...], ...]
    sampling: SamplingConfig | None = None
    #: Selects nothing (both values run the one executor); kept so that
    #: existing plan files keep their digest, until ROADMAP item 2, step 1.
    backend: ExecutionBackend = ExecutionBackend.SCALAR
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ExperimentError(
                f"plan length must be >= 1, got {self.length}"
            )
        if not self.shards or not any(self.shards):
            raise ExperimentError("a shard plan needs at least one cell")

    @property
    def cells(self) -> list[Task]:
        """Every grid cell of the plan, in shard order."""
        return [task for shard in self.shards for task in shard]

    def run_keys(self) -> dict[str, str]:
        """``{"model/app": run_key}`` for every cell, locally computed."""
        keys: dict[str, str] = {}
        for model_name, app_name in self.cells:
            keys[f"{model_name}/{app_name}"] = run_key(
                model_config(model_name), app_name, self.length,
                self.sampling,
            )
        return keys

    def _material(self) -> dict:
        sampling = (
            None if self.sampling is None
            else dataclasses.asdict(self.sampling)
        )
        return {
            "plan_version": PLAN_VERSION,
            "schema_version": self.schema_version,
            "length": self.length,
            "sampling": sampling,
            "backend": self.backend.value,
            "shards": [
                [list(task) for task in shard] for shard in self.shards
            ],
            "keys": self.run_keys(),
        }

    def digest(self) -> str:
        """Content digest over the plan *and* its locally derived keys."""
        material = json.dumps(self._material(), sort_keys=True)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        """JSON-representable plan, digest included."""
        payload = self._material()
        payload["digest"] = self.digest()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardPlan":
        """Reconstruct and verify a plan.

        Raises :class:`~repro.errors.ExperimentError` when the plan
        format or result schema does not match this implementation, or
        when the recomputed digest disagrees with the recorded one —
        i.e. the plan was edited, or this host's model configurations /
        sampling semantics drifted from the planner's.
        """
        try:
            version = payload["plan_version"]
            schema = payload["schema_version"]
            recorded = payload["digest"]
            sampling_fields = payload["sampling"]
            plan = cls(
                length=payload["length"],
                shards=tuple(
                    tuple((str(model), str(app)) for model, app in shard)
                    for shard in payload["shards"]
                ),
                sampling=(
                    None if sampling_fields is None
                    else SamplingConfig(**sampling_fields)
                ),
                backend=ExecutionBackend(payload["backend"]),
                schema_version=schema,
            )
        except ExperimentError:
            raise
        except Exception as exc:
            raise ExperimentError(f"unreadable shard plan: {exc}") from exc
        if version != PLAN_VERSION:
            raise ExperimentError(
                f"shard plan format v{version} is not supported "
                f"(this implementation speaks v{PLAN_VERSION})"
            )
        if schema != SCHEMA_VERSION:
            raise ExperimentError(
                f"shard plan targets result schema v{schema}, this host "
                f"produces v{SCHEMA_VERSION}; re-plan on matching versions"
            )
        actual = plan.digest()
        if actual != recorded:
            raise ExperimentError(
                "shard plan digest mismatch: the plan was edited or this "
                "host's model configurations/sampling semantics differ "
                f"from the planner's (recorded {recorded[:12]}…, "
                f"recomputed {actual[:12]}…)"
            )
        return plan

    def save(self, path: str | Path) -> None:
        """Write the plan as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ShardPlan":
        """Read and verify a plan written by :meth:`save`."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ExperimentError(
                f"cannot read shard plan {path}: {exc}"
            ) from exc
        return cls.from_dict(payload)


def plan_grid(
    models: Sequence[str] | None = None,
    apps: int | Sequence[str] | None = None,
    *,
    length: int,
    shards: int,
    sampling: SamplingConfig | None = None,
    backend: ExecutionBackend = ExecutionBackend.SCALAR,
) -> ShardPlan:
    """Plan an (application x model) grid as ``shards`` work units.

    ``models`` defaults to the full model roster; ``apps`` is a balanced
    subset size (``None`` = all 44), or an explicit application-name
    list.  Unknown names raise :class:`~repro.errors.ExperimentError`.
    """
    model_names = list(MODEL_NAMES) if models is None else list(models)
    unknown = [m for m in model_names if m not in MODEL_NAMES]
    if unknown:
        raise ExperimentError(
            f"unknown model(s) {', '.join(unknown)}; known: "
            f"{', '.join(MODEL_NAMES)}"
        )
    if apps is None or isinstance(apps, int):
        app_names = [app.name for app in benchmark_suite(max_apps=apps)]
    else:
        app_names = list(apps)
        for name in app_names:
            try:
                application(name)
            except KeyError:
                raise ExperimentError(
                    f"unknown application {name!r}"
                ) from None
    tasks = [
        (model, app) for app in app_names for model in model_names
    ]
    return ShardPlan(
        length=length,
        shards=tuple(tuple(shard)
                     for shard in partition_tasks(tasks, shards)),
        sampling=sampling,
        backend=backend,
    )


# -- shard execution ----------------------------------------------------------


@dataclass
class ShardReport:
    """What one :func:`run_shard` call did."""

    index: int
    shards: int
    cells: int
    simulated: int
    from_store: int
    store_root: Path


def run_shard(
    plan: ShardPlan,
    index: int,
    *,
    store_root: str | Path | None = None,
    jobs: int = 1,
    artifact_root: str | Path | None = None,
    progress: ProgressFn | None = None,
    timeout: float | None = None,
    mp_context: Any | None = None,
) -> ShardReport:
    """Execute shard ``index`` of ``plan`` against its own result store.

    The executing engine carries a ``shard i/N`` label, so progress lines
    from N hosts interleave legibly in one aggregated log.  Cells already
    present in the shard's store are served from it — re-running a shard
    (after a crash, say) only simulates what is genuinely missing.
    ``artifact_root`` is where the shard's compiled trace artifacts live
    (default beside the result store).
    """
    if not 0 <= index < len(plan.shards):
        raise ExperimentError(
            f"shard index {index} out of range; the plan has "
            f"{len(plan.shards)} shards (0..{len(plan.shards) - 1})"
        )
    store = ResultStore(store_root)
    engine = ExperimentEngine(
        plan.length,
        jobs=jobs,
        store=store,
        sampling=plan.sampling,
        artifact_root=artifact_root,
        progress=progress,
        timeout=timeout,
        mp_context=mp_context,
        shard=f"shard {index + 1}/{len(plan.shards)}",
    )
    cells = list(plan.shards[index])
    engine.run(cells)
    return ShardReport(
        index=index,
        shards=len(plan.shards),
        cells=len(cells),
        simulated=engine.simulations_run,
        from_store=engine.cache_hits,
        store_root=store.root,
    )


# -- merging ------------------------------------------------------------------


def merge_stores(
    dest_root: str | Path | None,
    source_roots: Sequence[str | Path],
    *,
    quarantine: bool = True,
) -> list[MergeReport]:
    """Merge shard stores into one, idempotently; one report per source.

    Thin fan-out over
    :meth:`~repro.experiments.engine.ResultStore.merge_from`; safe to
    re-run (identical records are skipped) and order-independent up to
    conflict auditing.
    """
    dest = ResultStore(dest_root)
    return [dest.merge_from(root, quarantine=quarantine)
            for root in source_roots]


def missing_keys(plan: ShardPlan,
                 store: ResultStore | str | Path | None) -> list[str]:
    """Plan cells (``"model/app"``) not answerable from ``store``.

    The completeness audit after a merge: an empty list means the merged
    store replays the whole grid with zero simulations.
    """
    target = store if isinstance(store, ResultStore) else ResultStore(store)
    present = set(target.keys())
    return sorted(
        cell for cell, key in plan.run_keys().items()
        if key not in present
    )
