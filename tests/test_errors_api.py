"""Unit tests: exception hierarchy and the public package surface."""

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    DecodeError,
    ExperimentError,
    OptimizationError,
    ReproError,
    SimulationError,
    TraceError,
    WorkloadError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [ConfigurationError, DecodeError, ExperimentError, OptimizationError,
         SimulationError, TraceError, WorkloadError],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)
        with pytest.raises(ReproError):
            raise error("boom")

    def test_catchable_individually(self):
        with pytest.raises(TraceError):
            raise TraceError("x")


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_quickstart_surface(self):
        """The README quickstart must work verbatim."""
        sim = repro.ParrotSimulator(repro.model_config("TON"))
        result = sim.simulate(repro.application("swim"), length=2000)
        assert result.ipc > 0

    def test_model_names_exported(self):
        assert repro.MODEL_NAMES == ("N", "W", "TN", "TW", "TON", "TOW", "TOS")

    def test_subpackage_exports_resolve(self):
        import repro.experiments
        import repro.frontend
        import repro.isa
        import repro.memory
        import repro.models
        import repro.optimizer
        import repro.pipeline
        import repro.power
        import repro.trace
        import repro.workloads

        for module in (repro.isa, repro.workloads, repro.memory, repro.frontend,
                       repro.pipeline, repro.trace, repro.optimizer, repro.power,
                       repro.models, repro.experiments):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)
