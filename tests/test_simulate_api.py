"""The simulate()/RunOptions API: one entry point, unified validation.

``ParrotSimulator.simulate`` is the one run entry point.  These tests pin
three contracts:

* shared caches and the estimate return shape never change a result;
* validation is unified in ``simulate`` and raises
  :class:`~repro.errors.SimulationError` naming the offending source;
* :class:`RunOptions` round-trips into the persistent store's run keys,
  and backend specs still parse, although both values run the one
  executor and give the default result.
"""

from __future__ import annotations

import pytest

from repro.core.simulator import (
    ColdPlanCache,
    ParrotSimulator,
    RunOptions,
    SampledRun,
    segment_stream,
)
from repro.errors import SimulationError
from repro.experiments.engine import parse_backend, resolve_run_options, run_key
from repro.models.configs import model_config
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling.config import SamplingConfig
from repro.workloads.suite import application
from repro.workloads.tracefile import compile_artifact

LENGTH = 2000


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    app = application("gzip")
    root = tmp_path_factory.mktemp("artifacts")
    return compile_artifact(app, app.seed, LENGTH, root=root)


class TestSimulateParity:
    """Shared caches and the return shape never change a result."""

    def test_artifact_shared_caches_match_private_ones(self, artifact):
        segments = artifact.segments()
        cache = ColdPlanCache(segments)
        private = ParrotSimulator(model_config("TON")).simulate(artifact)
        shared = ParrotSimulator(model_config("TON")).simulate(
            artifact, RunOptions(segments=segments, cold_plans=cache)
        )
        assert shared.to_dict() == private.to_dict()

    def test_sampling_without_estimate_returns_bare_result(self):
        app = application("swim")
        sampling = SamplingConfig(detail=400, gap=1000, warmup=200,
                                  func_warm=300)
        result = ParrotSimulator(model_config("TON")).simulate(
            app, RunOptions(sampling=sampling), length=8000
        )
        sampled = ParrotSimulator(model_config("TON")).simulate(
            app, RunOptions(sampling=sampling, estimate=True), length=8000
        )
        assert isinstance(sampled, SampledRun)
        assert result.to_dict() == sampled.result.to_dict()


class TestUnifiedValidation:
    """simulate() raises SimulationError naming the offending source."""

    def test_application_requires_length(self):
        with pytest.raises(SimulationError, match="simulate\\(swim\\).*length"):
            ParrotSimulator(model_config("N")).simulate(application("swim"))

    def test_application_rejects_non_positive_length(self):
        with pytest.raises(SimulationError, match="simulate\\(swim\\).*0"):
            ParrotSimulator(model_config("N")).simulate(
                application("swim"), length=0
            )

    def test_application_rejects_stream_kwargs(self):
        with pytest.raises(SimulationError,
                           match="simulate\\(swim\\).*InstructionStream"):
            ParrotSimulator(model_config("N")).simulate(
                application("swim"), length=1000, app_name="other"
            )

    def test_application_rejects_shared_caches(self):
        with pytest.raises(SimulationError,
                           match="simulate\\(swim\\).*artifact runs only"):
            ParrotSimulator(model_config("N")).simulate(
                application("swim"), RunOptions(segments=[]), length=1000
            )

    def test_artifact_rejects_explicit_length(self, artifact):
        with pytest.raises(SimulationError,
                           match="gzip artifact.*its own length"):
            ParrotSimulator(model_config("N")).simulate(artifact, length=500)

    def test_sampled_stream_requires_length(self):
        workload = application("gzip").build()
        with pytest.raises(SimulationError,
                           match="custom stream.*explicit length"):
            ParrotSimulator(model_config("N")).simulate(
                workload.stream(1000),
                RunOptions(sampling=SamplingConfig()),
            )

    def test_unknown_source_type_is_named(self):
        with pytest.raises(SimulationError, match="cannot run a str"):
            ParrotSimulator(model_config("N")).simulate("swim", length=1000)

    def test_cold_plan_cache_requires_matching_segments(self, artifact):
        segments = artifact.segments()
        foreign = list(segment_stream(artifact.stream()))
        cache = ColdPlanCache(foreign)
        with pytest.raises(SimulationError, match="different segment list"):
            ParrotSimulator(model_config("N")).simulate(
                artifact, RunOptions(segments=segments, cold_plans=cache)
            )

    def test_cold_plan_cache_requires_segments_alongside(self, artifact):
        cache = ColdPlanCache(artifact.segments())
        with pytest.raises(SimulationError, match="matching segments"):
            ParrotSimulator(model_config("N")).simulate(
                artifact, RunOptions(cold_plans=cache)
            )

    def test_bare_dict_cold_plans_are_rejected(self, artifact):
        options = RunOptions(segments=artifact.segments(), cold_plans={})
        with pytest.raises(SimulationError, match="must be a ColdPlanCache"):
            ParrotSimulator(model_config("N")).simulate(artifact, options)


class TestRunOptionsKeys:
    """RunOptions round-trips into the persistent store's run keys."""

    def test_run_key_accepts_options_or_sampling(self):
        config = model_config("TON")
        sampling = SamplingConfig()
        assert run_key(config, "swim", 2000, RunOptions()) == run_key(
            config, "swim", 2000
        )
        assert run_key(
            config, "swim", 2000, RunOptions(sampling=sampling)
        ) == run_key(config, "swim", 2000, sampling)

    def test_backend_never_splits_the_key(self):
        # Both backend values run the one executor, so either may serve
        # a stored cell: the key must not depend on it.
        config = model_config("TON")
        assert run_key(
            config, "swim", 2000,
            RunOptions(backend=ExecutionBackend.COMPILED),
        ) == run_key(config, "swim", 2000, RunOptions())

    def test_prewarm_splits_the_key(self):
        # Prewarming changes results, so it must key separately.
        config = model_config("TON")
        assert run_key(
            config, "swim", 2000, RunOptions(prewarm=False)
        ) != run_key(config, "swim", 2000, RunOptions())


class TestBackendCompatibility:
    def test_compiled_option_gives_the_default_result(self):
        # The benchmark still passes backend=COMPILED; it must select the
        # same executor as the default.
        simulator = ParrotSimulator(model_config("TON"))
        default = simulator.simulate(application("swim"), length=4000)
        compiled = simulator.simulate(
            application("swim"),
            RunOptions(backend=ExecutionBackend.COMPILED), length=4000,
        )
        assert default.uops_hot > 0
        assert compiled.to_dict() == default.to_dict()


class TestBackendParsing:
    def test_parse_backend(self):
        assert parse_backend(None) is ExecutionBackend.SCALAR
        assert parse_backend("") is ExecutionBackend.SCALAR
        assert parse_backend("scalar") is ExecutionBackend.SCALAR
        assert parse_backend("COMPILED") is ExecutionBackend.COMPILED
        assert list(ExecutionBackend) == [ExecutionBackend.SCALAR,
                                          ExecutionBackend.COMPILED]

    def test_parse_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            parse_backend("vectorised")
        with pytest.raises(ValueError, match="choose from: scalar, compiled"):
            parse_backend("columnar")

    def test_resolve_run_options_specs(self):
        options = resolve_run_options("on", "compiled")
        assert options.backend is ExecutionBackend.COMPILED
        assert options.sampling == SamplingConfig()
        # No spec means full detail on the scalar reference.
        assert resolve_run_options() == RunOptions()
        assert resolve_run_options("off", "scalar") == RunOptions()
