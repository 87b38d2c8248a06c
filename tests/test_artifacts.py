"""Compiled trace artifacts: round-trip parity, the cache, engine accounting.

The artifact layer's single correctness obligation is bit-identity: a
stream replayed from a compiled artifact must be indistinguishable — per
dynamic record and per simulation result — from the stream walked out of
the generator, in every regime (full detail over the artifact's shared
segment partition and cold plans, sampled).  Everything else here is
plumbing: content keying, cache hit/miss/compile accounting, recovery
from a damaged artifact, and the engine-level counters that surface it
all (the cache contract every on-disk cache shares lives in
``tests/test_cache.py``).
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.simulator import ParrotSimulator, RunOptions
from repro.errors import WorkloadError
from repro.experiments.engine import ExperimentEngine, ResultStore
from repro.experiments.runner import ExperimentRunner
from repro.models.configs import model_config
from repro.sampling import SamplingConfig
from repro.workloads import tracefile as tracefile_mod
from repro.workloads.suite import application, benchmark_suite
from repro.workloads.tracefile import (
    ARTIFACT_SCHEMA_VERSION,
    ArtifactCache,
    TraceArtifact,
    artifact_key,
    compile_artifact,
)

LENGTH = 1500

#: One representative application per benchmark suite.
SUITE_APPS = sorted(
    {app.suite: app.name for app in benchmark_suite(max_apps=None)}.values()
)


def _compile(app_name: str, root, length: int = LENGTH) -> TraceArtifact:
    app = application(app_name)
    return compile_artifact(app, app.seed, length, root=root)


def _rows(records):
    # MacroInstruction compares by value (address, length, class, target
    # and every uop's fields), so a row match pins the static image too.
    return [(r.instr, r.taken, r.next_address, r.mem_addr) for r in records]


class TestRoundTrip:
    @pytest.mark.parametrize("app_name", SUITE_APPS)
    def test_replay_matches_direct_walk_per_suite(self, app_name, tmp_path):
        app = application(app_name)
        direct = app.build().stream(LENGTH).take_batch(LENGTH)
        artifact = _compile(app_name, tmp_path)
        replayed = artifact.stream().take_batch(LENGTH)
        assert _rows(replayed) == _rows(direct)

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(length=st.integers(min_value=1, max_value=900))
    def test_replay_matches_direct_walk_any_length(self, length, tmp_path):
        app = application("gzip")
        direct = app.build().stream(length).take_batch(length)
        artifact = compile_artifact(app, app.seed, length, root=tmp_path)
        assert _rows(artifact.stream().take_batch(length)) == _rows(direct)

    def test_only_executed_statics_stored(self, tmp_path):
        app = application("gzip")
        workload = app.build()
        executed = {r.address for r in workload.stream(LENGTH)
                    .take_batch(LENGTH)}
        artifact = _compile("gzip", tmp_path)
        assert sorted(i.address for i in artifact.instructions) == \
            sorted(executed)
        assert len(artifact.instructions) < \
            workload.stats.static_instructions

    def test_limit_clamps_to_artifact_length(self, tmp_path):
        artifact = _compile("gzip", tmp_path)
        assert len(artifact.stream(LENGTH + 500).take_batch(LENGTH + 500)) \
            == LENGTH
        assert len(artifact.stream(100).take_batch(LENGTH)) == 100

    def test_metadata_round_trips(self, tmp_path):
        app = application("swim")
        artifact = _compile("swim", tmp_path)
        assert artifact.app_name == "swim"
        assert artifact.suite == app.suite
        assert artifact.seed == app.seed
        assert len(artifact) == LENGTH


class TestSimulatorParity:
    @pytest.mark.parametrize("app_name,model", [
        ("swim", "TON"), ("gzip", "N"), ("eon", "TOW"),
    ])
    def test_run_artifact_bit_identical(self, app_name, model, tmp_path):
        simulator = ParrotSimulator(model_config(model))
        direct = simulator.simulate(application(app_name), length=LENGTH)
        artifact = _compile(app_name, tmp_path)
        assert simulator.simulate(artifact).to_dict() == direct.to_dict()

    def test_shared_segments_bit_identical(self, tmp_path):
        """Every model replays the artifact's one segment partition."""
        artifact = _compile("swim", tmp_path)
        segments = artifact.segments()
        for model in ("N", "TON"):
            simulator = ParrotSimulator(model_config(model))
            direct = simulator.simulate(application("swim"), length=LENGTH)
            shared = simulator.simulate(artifact)
            assert shared.to_dict() == direct.to_dict()
        assert artifact.segments() is segments

    def test_shared_cold_plans_bit_identical_hot_dominated(self, tmp_path):
        """The artifact's shared segments and cold plans, hot-heavy run.

        swim/TON at 20k is the hot-trace-dominated golden pair: most of
        its segments replay cached hot plans, while the artifact's shared
        cold plans serve the rest — a second run replays the plans the
        first one built.  Both results must equal the generator path's.
        """
        length = 20_000
        artifact = _compile("swim", tmp_path, length)
        simulator = ParrotSimulator(model_config("TON"))
        direct = simulator.simulate(application("swim"), length=length)
        first = simulator.simulate(artifact)
        assert artifact.cold_plans(simulator.config.fetch)
        second = simulator.simulate(artifact)
        assert direct.uops_hot > direct.uops_cold
        assert first.to_dict() == direct.to_dict()
        assert second.to_dict() == direct.to_dict()

    def test_sampled_bit_identical(self, tmp_path):
        length = 60_000
        sampling = SamplingConfig()
        simulator = ParrotSimulator(model_config("TON"))
        direct = simulator.simulate(
            application("swim"), RunOptions(sampling=sampling), length=length
        )
        artifact = _compile("swim", tmp_path, length)
        sampled = simulator.simulate(artifact, RunOptions(sampling=sampling))
        assert sampled.to_dict() == direct.to_dict()


class TestArtifactKey:
    def test_sensitive_to_every_input(self, monkeypatch):
        base = artifact_key("swim", 7, 1000)
        assert artifact_key("gzip", 7, 1000) != base
        assert artifact_key("swim", 8, 1000) != base
        assert artifact_key("swim", 7, 1001) != base
        monkeypatch.setattr(tracefile_mod, "ARTIFACT_SCHEMA_VERSION", 999)
        assert artifact_key("swim", 7, 1000) != base

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ArtifactCache().root == tmp_path / "elsewhere" / "artifacts"


class TestArtifactCache:
    def test_compile_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        app = application("gzip")
        cache.get_or_compile(app, LENGTH)
        assert (cache.hits, cache.compiles) == (0, 1)
        cache.get_or_compile(app, LENGTH)
        assert (cache.hits, cache.compiles) == (1, 1)
        # A second cache over the same root sees the persisted artifact.
        other = ArtifactCache(tmp_path)
        other.get_or_compile(app, LENGTH)
        assert (other.hits, other.compiles) == (1, 0)

    def test_miss_on_absent(self, tmp_path):
        assert ArtifactCache(tmp_path).load("gzip", 1, 100) is None

    def test_corrupt_artifact_recompiles(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        app = application("gzip")
        dyn = cache.get_or_compile(app, LENGTH).path / "dyn.npy"
        truncated = dyn.read_bytes()[: dyn.stat().st_size // 2]
        dyn.write_bytes(truncated)
        fresh = cache.get_or_compile(app, LENGTH)
        assert cache.compiles == 2
        assert _rows(fresh.stream().take_batch(LENGTH)) == \
            _rows(app.build().stream(LENGTH).take_batch(LENGTH))
        del fresh  # its record is mapped from the file truncated next
        dyn.write_bytes(truncated)
        info = cache.info()
        assert (info.entries, info.quarantined) == (0, 1)

    def test_schema_bump_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        app = application("gzip")
        artifact = cache.get_or_compile(app, LENGTH)
        meta_path = artifact.path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = -1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(WorkloadError, match="schema"):
            TraceArtifact.load(artifact.path)
        assert cache.load(app.name, app.seed, LENGTH) is None

    def test_info_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for name in ("gzip", "swim"):
            cache.get_or_compile(application(name), LENGTH)
        info = cache.info()
        assert info.entries == 2 and info.total_bytes > 0
        assert info.path == tmp_path
        assert info.schema_version == ARTIFACT_SCHEMA_VERSION
        assert cache.clear() == 2
        assert cache.info().entries == 0

    def test_racing_compile_is_idempotent(self, tmp_path):
        app = application("gzip")
        first = compile_artifact(app, app.seed, LENGTH, root=tmp_path)
        second = compile_artifact(app, app.seed, LENGTH, root=tmp_path)
        assert first.path == second.path
        assert _rows(first.stream().take_batch(LENGTH)) == \
            _rows(second.stream().take_batch(LENGTH))


class TestEngineAccounting:
    TASKS = [("N", "gzip"), ("TON", "gzip"), ("N", "swim"), ("TON", "swim")]

    def test_serial_compiles_once_per_app(self, tmp_path):
        engine = ExperimentEngine(1200, artifact_root=tmp_path)
        engine.run(self.TASKS)
        assert engine.artifact_compiles == 2
        assert engine.artifact_hits == 0
        again = ExperimentEngine(1200, artifact_root=tmp_path)
        again.run(self.TASKS)
        assert again.artifact_compiles == 0
        assert again.artifact_hits == 2

    def test_parallel_counters_cross_the_pool(self, tmp_path):
        engine = ExperimentEngine(1200, jobs=2, artifact_root=tmp_path)
        engine.run(self.TASKS)
        assert engine.artifact_compiles == 2
        assert engine.artifact_hits == 0
        again = ExperimentEngine(1200, jobs=2, artifact_root=tmp_path)
        again.run(self.TASKS)
        assert again.artifact_compiles == 0
        assert again.artifact_hits == 2

    @staticmethod
    def _generator_grid(tasks, length, options=None):
        """The grid walked straight out of the workload generator."""
        return {
            (model, app): ParrotSimulator(model_config(model)).simulate(
                application(app), options, length=length
            )
            for model, app in tasks
        }

    def test_artifact_grid_matches_generator_grid(self, tmp_path):
        engine = ExperimentEngine(1200, artifact_root=tmp_path)
        assert engine.run(self.TASKS) == \
            self._generator_grid(self.TASKS, 1200)

    def test_sampled_artifact_grid_matches_generator_grid(self, tmp_path):
        sampling = SamplingConfig(detail=500, gap=2000, warmup=200,
                                  func_warm=1000)
        engine = ExperimentEngine(
            8000, sampling=sampling, artifact_root=tmp_path
        )
        tasks = self.TASKS[:2]
        assert engine.run(tasks) == self._generator_grid(
            tasks, 8000, RunOptions(sampling=sampling)
        )

    def test_parallel_artifact_grid_matches_serial(self, tmp_path):
        serial = ExperimentEngine(1200, artifact_root=tmp_path / "a")
        parallel = ExperimentEngine(
            1200, jobs=2, artifact_root=tmp_path / "b"
        )
        assert serial.run(self.TASKS) == parallel.run(self.TASKS)

    def test_store_hit_skips_artifact_resolution(self, tmp_path):
        store_root = tmp_path / "store"
        first = ExperimentEngine(
            1200, store=ResultStore(store_root), artifact_root=tmp_path / "a"
        )
        first.run(self.TASKS[:2])
        second = ExperimentEngine(
            1200, store=ResultStore(store_root), artifact_root=tmp_path / "a"
        )
        second.run(self.TASKS[:2])
        assert second.cache_hits == 2
        assert second.artifact_hits == 0 and second.artifact_compiles == 0


class TestRunnerPassthrough:
    def test_runner_exposes_artifact_counters(self, tmp_path):
        runner = ExperimentRunner(
            length=1200, max_apps=2, artifact_dir=tmp_path
        )
        runner.grid(["N", "TON"])
        assert runner.artifact_compiles == 2
        assert runner.artifact_hits == 0
