"""Experiment grid runner: memoisation over the parallel engine.

Every figure of the evaluation section is a different view over the same
(application x model) grid of simulation runs.  The runner keeps the
in-process memo (one sweep serves all figures within an invocation) and
delegates execution to the
:class:`~repro.experiments.engine.ExperimentEngine`, which adds process
fan-out (``jobs``) and the persistent on-disk result store (``cache``) so
repeated invocations re-read results instead of re-simulating.

Scale is controlled explicitly or via :class:`~repro.experiments.engine.Scale`
(the ``repro`` CLI's ``--apps/--length/...`` flags): the paper simulates
30-100M instructions per application; our default is 20k instructions
over a balanced subset, enough for every qualitative shape, and the full
44-application roster is one knob away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.results import SimulationResult
from repro.experiments.engine import (
    DEFAULT_APPS,
    DEFAULT_LENGTH,
    ExperimentEngine,
    ProgressFn,
    ResultStore,
    Scale,
)
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import Application, application, benchmark_suite

__all__ = [
    "DEFAULT_APPS",
    "DEFAULT_LENGTH",
    "ExperimentRunner",
]


@dataclass
class ExperimentRunner:
    """Run and memoise (application, model) simulations.

    ``jobs > 1`` evaluates grid batches on a process pool; ``cache=True``
    adds the persistent result store under ``cache_dir`` (default:
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``); ``sampling`` switches
    every run to sampled simulation (keyed separately in the store);
    ``artifact_dir`` overrides where compiled trace artifacts live
    (default beside the result store); ``backend`` selects nothing (both
    values run the one executor; kept because the benchmark passes it,
    until ROADMAP item 2, step 1 retires it).  The default construction
    is serial, with no disk store, at full detail.
    """

    length: int = DEFAULT_LENGTH
    max_apps: int | None = DEFAULT_APPS
    jobs: int = 1
    cache: bool = False
    cache_dir: str | Path | None = None
    timeout: float | None = None
    progress: ProgressFn | None = None
    sampling: SamplingConfig | None = None
    artifact_dir: str | Path | None = None
    backend: ExecutionBackend = ExecutionBackend.SCALAR
    _memo: dict[tuple[str, str], SimulationResult] = field(
        default_factory=dict, repr=False
    )
    engine: ExperimentEngine = field(init=False, repr=False)

    def __post_init__(self) -> None:
        store = ResultStore(self.cache_dir) if self.cache else None
        self.engine = ExperimentEngine(
            self.length,
            jobs=self.jobs,
            store=store,
            timeout=self.timeout,
            progress=self.progress,
            sampling=self.sampling,
            artifact_root=self.artifact_dir,
        )

    @classmethod
    def from_scale(cls, scale: Scale, **kwargs) -> "ExperimentRunner":
        """Build a runner from one :class:`Scale` knob bundle."""
        return cls(
            length=scale.length,
            max_apps=scale.apps,
            jobs=scale.jobs,
            cache=scale.cache,
            sampling=scale.sampling,
            **kwargs,
        )

    # -- execution --------------------------------------------------------

    def applications(self) -> list[Application]:
        """The application roster at the configured scale."""
        return benchmark_suite(max_apps=self.max_apps)

    def result(self, model_name: str, app: Application | str) -> SimulationResult:
        """Result of one (model, application) run, memoised."""
        if isinstance(app, str):
            app = application(app)
        key = (model_name, app.name)
        cached = self._memo.get(key)
        if cached is None:
            cached = self.engine.run_one(model_name, app.name)
            self._memo[key] = cached
        return cached

    def results(
        self, model_name: str, apps: list[Application] | None = None
    ) -> list[SimulationResult]:
        """Results of one model over the roster (or an explicit app list)."""
        return self.grid([model_name], apps)[model_name]

    def grid(
        self, model_names: list[str], apps: list[Application] | None = None
    ) -> dict[str, list[SimulationResult]]:
        """Results for several models over the same applications.

        Cells missing from the memo are evaluated in one engine batch, so
        with ``jobs > 1`` the whole remainder of the grid fans out at once.
        """
        if apps is None:
            apps = self.applications()
        wanted = [
            (model, app.name) for model in model_names for app in apps
        ]
        missing = [task for task in wanted if task not in self._memo]
        if missing:
            self._memo.update(self.engine.run(missing))
        return {
            model: [self._memo[(model, app.name)] for app in apps]
            for model in model_names
        }

    # -- bookkeeping ------------------------------------------------------

    @property
    def runs_cached(self) -> int:
        """Number of memoised simulation runs."""
        return len(self._memo)

    @property
    def cache_hits(self) -> int:
        """Runs served from the persistent store (0 without a store)."""
        return self.engine.cache_hits

    @property
    def simulations_run(self) -> int:
        """Runs actually simulated (not served from memo or store)."""
        return self.engine.simulations_run

    @property
    def artifact_hits(self) -> int:
        """Compiled trace artifacts loaded from the artifact cache."""
        return self.engine.artifact_hits

    @property
    def artifact_compiles(self) -> int:
        """Compiled trace artifacts built from scratch this invocation."""
        return self.engine.artifact_compiles
