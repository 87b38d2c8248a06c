"""Unit + integration tests: Scale, the result store, the parallel engine."""

import json
import multiprocessing
import os
import pathlib
import time
from argparse import Namespace

import pytest

from repro.core.results import SimulationResult
from repro.errors import ExperimentError
from repro.experiments import engine as engine_mod
from repro.experiments.engine import (
    DEFAULT_APPS,
    DEFAULT_LENGTH,
    ExperimentEngine,
    ResultStore,
    Scale,
    config_fingerprint,
    default_jobs,
    parse_apps,
    run_key,
)
from repro.experiments.runner import ExperimentRunner
from repro.models.configs import model_config
from repro.sampling import SamplingConfig

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


class TestScale:
    def test_defaults(self):
        scale = Scale()
        assert scale.apps == DEFAULT_APPS
        assert scale.length == DEFAULT_LENGTH
        assert scale.jobs == default_jobs()
        assert scale.cache is True

    def test_sampling_from_args(self):
        args = Namespace(apps="2", length=100, jobs=1, no_cache=False,
                         sampling="2000:18000:1000")
        assert Scale.from_args(args).sampling == SamplingConfig(
            detail=2000, gap=18000, warmup=1000
        )
        args.sampling = None  # no --sampling flag: full detail
        assert Scale.from_args(args).sampling is None

    def test_from_args(self):
        args = Namespace(apps="7", length=5000, jobs=2, no_cache=True)
        assert Scale.from_args(args) == Scale(
            apps=7, length=5000, jobs=2, cache=False
        )

    def test_from_args_jobs_defaults_to_usable_cores(self):
        args = Namespace(apps="all", length=100, jobs=None, no_cache=False)
        assert Scale.from_args(args) == Scale(
            apps=None, length=100, jobs=default_jobs(), cache=True
        )

    def test_parse_apps(self):
        assert parse_apps("all") is None
        assert parse_apps("44") is None
        assert parse_apps("12") == 12
        with pytest.raises(ValueError):
            parse_apps("0")
        with pytest.raises(ValueError):
            parse_apps("nope")

    def test_default_jobs_respects_affinity_mask(self, monkeypatch):
        # A container pinned to 3 of a 64-core host must get 3 workers,
        # not 64: the affinity mask, not cpu_count, is what is usable.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_jobs() == 3

    def test_default_jobs_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_jobs() == 5

    def test_scale_is_hashable(self):
        assert Scale(apps=2, length=10, jobs=1, cache=True) in {
            Scale(apps=2, length=10, jobs=1, cache=True)
        }


class TestRunKey:
    def test_deterministic(self):
        config = model_config("TON")
        assert run_key(config, "swim", 2000) == run_key(config, "swim", 2000)

    def test_sensitive_to_every_input(self, monkeypatch):
        ton = model_config("TON")
        base = run_key(ton, "swim", 2000)
        assert run_key(model_config("N"), "swim", 2000) != base
        assert run_key(ton, "gzip", 2000) != base
        assert run_key(ton, "swim", 2001) != base
        monkeypatch.setattr(engine_mod, "SCHEMA_VERSION", 999)
        assert run_key(ton, "swim", 2000) != base

    def test_fingerprint_covers_microarchitecture(self):
        assert "bpred_entries=2048" in config_fingerprint(model_config("TON"))
        assert config_fingerprint(model_config("TON")) != config_fingerprint(
            model_config("TOW")
        )

    def test_sampled_and_full_runs_never_collide(self):
        config = model_config("TON")
        full = run_key(config, "swim", 2000)
        sampled = run_key(config, "swim", 2000, SamplingConfig())
        assert sampled != full
        assert run_key(config, "swim", 2000, None) == full
        assert run_key(
            config, "swim", 2000, SamplingConfig(detail=2000)
        ) != sampled


def _dummy_result(model="N", app="gzip", instructions=100):
    return SimulationResult(
        app_name=app, suite="SpecInt", model_name=model,
        instructions=instructions, cycles=50.0,
    )


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        result = _dummy_result()
        store.store("ab" + "0" * 62, result)
        assert store.load("ab" + "0" * 62) == result
        assert store.hits == 1 and store.writes == 1

    def test_miss_on_absent(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.load("cd" + "0" * 62) is None
        assert store.misses == 1

    def test_corrupt_record_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" + "0" * 62
        store.store(key, _dummy_result())
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json")
        assert store.load(key) is None

    def test_stale_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "01" + "0" * 62
        store.store(key, _dummy_result())
        path = tmp_path / key[:2] / f"{key}.json"
        record = json.loads(path.read_text())
        record["result"]["schema_version"] = -1
        path.write_text(json.dumps(record))
        assert store.load(key) is None

    def test_info_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        for index in range(3):
            store.store(f"{index:02x}" + "0" * 62, _dummy_result())
        info = store.info()
        assert info.entries == 3 and info.total_bytes > 0
        assert info.path == tmp_path
        assert store.clear() == 3
        assert store.info().entries == 0

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultStore().root == tmp_path / "elsewhere"

    def test_info_sweeps_orphaned_tmp_files(self, tmp_path, dead_pid):
        store = ResultStore(tmp_path)
        store.store("ab" + "0" * 62, _dummy_result())
        orphans = [
            tmp_path / "ab" / ("ab" + "0" * 62 + f".json.tmp.{dead_pid}"),
            tmp_path / "cd" / ("cd" + "0" * 62 + f".json.tmp.{dead_pid}"),
        ]
        for orphan in orphans:
            orphan.parent.mkdir(exist_ok=True)
            orphan.write_text("half-written")
        info = store.info()
        assert info.stale_tmp == 2 and info.entries == 1
        assert not any(orphan.exists() for orphan in orphans)
        assert store.info().stale_tmp == 0  # second sweep finds nothing

    def test_clear_sweeps_orphaned_tmp_files(self, tmp_path, dead_pid):
        store = ResultStore(tmp_path)
        store.store("ab" + "0" * 62, _dummy_result())
        orphan = tmp_path / "ab" / ("ab" + "0" * 62 + f".json.tmp.{dead_pid}")
        orphan.write_text("half-written")
        assert store.clear() == 1  # orphans are swept, not counted
        assert not orphan.exists()
        assert store.info().entries == 0


class TestResultStoreLRU:
    def test_disabled_by_default(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ab" + "0" * 62
        store.store(key, _dummy_result())
        (tmp_path / "ab" / f"{key}.json").unlink()
        assert store.load(key) is None  # no LRU: disk is the only truth

    def test_warm_load_skips_disk(self, tmp_path):
        store = ResultStore(tmp_path, lru=4)
        key = "ab" + "0" * 62
        result = _dummy_result()
        store.store(key, result)
        (tmp_path / "ab" / f"{key}.json").unlink()
        assert store.load(key) == result  # served from the LRU
        assert store.hits == 1 and store.lru_hits == 1

    def test_eviction_is_least_recently_used(self, tmp_path):
        store = ResultStore(tmp_path, lru=2)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for key in keys:
            store.store(key, _dummy_result())
        store.clear()  # drops disk *and* the LRU
        assert all(store.load(key) is None for key in keys)

        for key in keys[:2]:
            store.store(key, _dummy_result())
        store.load(keys[0])  # refresh 0: key 1 is now the LRU victim
        store.store(keys[2], _dummy_result())
        for stored in store.keys():
            store.path(stored).unlink()
        assert store.load(keys[0]) is not None
        assert store.load(keys[1]) is None  # evicted
        assert store.load(keys[2]) is not None


class TestEngine:
    def test_unknown_model_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentEngine(1000).run_one("QQ", "gzip")

    def test_parallel_matches_serial_exactly(self):
        tasks = [("N", "gzip"), ("N", "swim"), ("TON", "gzip"), ("TON", "swim")]
        serial = ExperimentEngine(1200, jobs=1).run(tasks)
        parallel = ExperimentEngine(1200, jobs=2).run(tasks)
        assert serial == parallel

    def test_store_serves_second_engine(self, tmp_path):
        tasks = [("N", "gzip"), ("N", "swim")]
        first = ExperimentEngine(1200, store=ResultStore(tmp_path))
        results = first.run(tasks)
        assert first.simulations_run == 2 and first.cache_hits == 0

        second = ExperimentEngine(1200, store=ResultStore(tmp_path))
        again = second.run(tasks)
        assert second.simulations_run == 0 and second.cache_hits == 2
        assert again == results

    def test_store_keys_on_length(self, tmp_path):
        store = ResultStore(tmp_path)
        ExperimentEngine(1200, store=store).run([("N", "gzip")])
        other = ExperimentEngine(1300, store=ResultStore(tmp_path))
        other.run([("N", "gzip")])
        assert other.simulations_run == 1  # different length, no hit

    def test_progress_reporting(self):
        seen = []
        engine = ExperimentEngine(
            1200, progress=lambda *call: seen.append(call)
        )
        engine.run([("N", "gzip"), ("N", "swim")])
        assert [c[:2] for c in seen] == [(1, 2), (2, 2)]

    def test_serial_progress_labels_carry_chunks(self):
        seen = []
        engine = ExperimentEngine(
            1200, progress=lambda *call: seen.append(call)
        )
        engine.run([("N", "gzip"), ("N", "swim")])
        assert [c[2] for c in seen] == [
            "N/gzip [chunk 1/2]", "N/swim [chunk 2/2]",
        ]

    @pytest.mark.skipif(not FORK_AVAILABLE,
                        reason="needs the fork start method")
    def test_parallel_progress_labels_match_serial_format(self):
        # Satellite guarantee: the serial and parallel paths emit the same
        # "model/app [chunk i/n]" labels, so shard logs line up 1:1.
        tasks = [("N", "gzip"), ("W", "gzip"), ("N", "swim"), ("W", "swim")]
        serial_seen, parallel_seen = [], []
        ExperimentEngine(
            800, progress=lambda *call: serial_seen.append(call)
        ).run(tasks)
        ExperimentEngine(
            800, jobs=2, progress=lambda *call: parallel_seen.append(call),
            mp_context=multiprocessing.get_context("fork"),
        ).run(tasks)
        assert sorted(c[2] for c in parallel_seen) == \
            sorted(c[2] for c in serial_seen)
        assert all(" [chunk " in c[2] for c in parallel_seen)

    def test_shard_label_prefixes_progress(self, tmp_path):
        seen = []
        engine = ExperimentEngine(
            1200, store=ResultStore(tmp_path), shard="shard 2/3",
            progress=lambda *call: seen.append(call),
        )
        engine.run([("N", "gzip")])
        engine.run([("N", "gzip")])  # second pass: a store hit
        assert [c[3] for c in seen] == ["run", "store"]
        assert all(c[2].startswith("shard 2/3:N/gzip") for c in seen)

    def test_duplicate_tasks_run_once(self):
        engine = ExperimentEngine(1200)
        engine.run([("N", "gzip"), ("N", "gzip")])
        assert engine.simulations_run == 1

    def test_sampled_runs_keyed_separately_in_store(self, tmp_path):
        task = [("N", "gzip")]
        full = ExperimentEngine(1200, store=ResultStore(tmp_path))
        full.run(task)
        sampled = ExperimentEngine(
            1200, store=ResultStore(tmp_path), sampling=SamplingConfig()
        )
        sampled.run(task)
        assert sampled.simulations_run == 1 and sampled.cache_hits == 0
        # ... but a second sampled engine with the same config hits.
        again = ExperimentEngine(
            1200, store=ResultStore(tmp_path), sampling=SamplingConfig()
        )
        again.run(task)
        assert again.simulations_run == 0 and again.cache_hits == 1


# -- fault injection ----------------------------------------------------------
# Worker functions must be module-level so the pool can pickle them by
# reference; the tests pin the fork start method so monkeypatched state and
# environment markers are inherited by the children.


def _crash_once_task(model: str, app: str, length: int) -> dict:
    marker = pathlib.Path(os.environ["REPRO_TEST_CRASH_MARKER"])
    if not marker.exists():
        marker.write_text("crashed")
        os._exit(17)
    return _dummy_result(model, app, length).to_dict()


def _always_crash_task(model: str, app: str, length: int) -> dict:
    os._exit(17)


def _sleepy_task(model: str, app: str, length: int) -> dict:
    time.sleep(5.0)
    return _dummy_result(model, app, length).to_dict()  # pragma: no cover


def _raising_task(model: str, app: str, length: int) -> dict:
    if app == "swim":
        raise ValueError("synthetic worker failure")
    return _dummy_result(model, app, length).to_dict()


def _raise_once_task(model: str, app: str, length: int) -> dict:
    marker = pathlib.Path(os.environ["REPRO_TEST_CRASH_MARKER"])
    if not marker.exists():
        marker.write_text("raised")
        raise ValueError("synthetic worker failure")
    return _dummy_result(model, app, length).to_dict()  # pragma: no cover


@pytest.mark.skipif(not FORK_AVAILABLE, reason="needs the fork start method")
class TestFaultHandling:
    def _engine(self, task_fn, **kwargs):
        return ExperimentEngine(
            100, jobs=2, task_fn=task_fn,
            mp_context=multiprocessing.get_context("fork"), **kwargs,
        )

    def test_worker_crash_retried_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_MARKER", str(tmp_path / "marker")
        )
        engine = self._engine(_crash_once_task)
        results = engine.run([("N", "gzip"), ("N", "swim")])
        assert set(results) == {("N", "gzip"), ("N", "swim")}

    def test_persistent_crash_raises(self):
        engine = self._engine(_always_crash_task)
        with pytest.raises(ExperimentError, match="crashed twice"):
            engine.run([("N", "gzip"), ("N", "swim")])

    def test_stalled_grid_times_out(self):
        engine = self._engine(_sleepy_task, timeout=0.4)
        start = time.monotonic()
        with pytest.raises(ExperimentError, match="finished within"):
            engine.run([("N", "gzip"), ("N", "swim")])
        assert time.monotonic() - start < 4.0  # workers were terminated

    def test_worker_exception_names_the_task(self):
        engine = self._engine(_raising_task)
        with pytest.raises(ExperimentError) as excinfo:
            engine.run([("TON", "gzip"), ("TON", "swim")])
        message = str(excinfo.value)
        assert "TON/swim" in message
        assert "ValueError" in message
        assert "synthetic worker failure" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_worker_exception_is_not_retried(self, tmp_path, monkeypatch):
        # A Python-level failure is deterministic: unlike a pool crash it
        # must surface immediately rather than burn a retry pass (which
        # would succeed here, since the task only raises once).
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_MARKER", str(tmp_path / "marker")
        )
        engine = self._engine(_raise_once_task)
        with pytest.raises(ExperimentError, match="ValueError"):
            engine.run([("N", "gzip"), ("N", "swim")])

    def test_chunked_crash_retried_once(self, tmp_path, monkeypatch):
        # Two apps x two models -> two multi-cell chunks; a worker crash
        # loses a whole chunk, and the retry pass must recover all of it.
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_MARKER", str(tmp_path / "marker")
        )
        engine = self._engine(_crash_once_task)
        tasks = [("N", "gzip"), ("TON", "gzip"), ("N", "swim"),
                 ("TON", "swim")]
        results = engine.run(tasks)
        assert set(results) == set(tasks)
        assert engine.simulations_run == len(tasks)

    def test_multi_cell_chunk_exception_names_the_chunk(self):
        engine = self._engine(_raising_task)
        tasks = [("N", "gzip"), ("TON", "gzip"), ("N", "swim"),
                 ("TON", "swim")]
        with pytest.raises(ExperimentError) as excinfo:
            engine.run(tasks)
        message = str(excinfo.value)
        assert "swim" in message
        assert "ValueError" in message and "synthetic worker failure" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_retry_progress_is_monotonic(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_CRASH_MARKER", str(tmp_path / "marker")
        )
        seen = []
        engine = self._engine(
            _crash_once_task,
            progress=lambda done, total, task, source: seen.append(done),
        )
        tasks = [("N", "gzip"), ("N", "swim"), ("N", "vpr"), ("N", "eon")]
        results = engine.run(tasks)
        assert set(results) == set(tasks)
        assert seen == sorted(seen), f"progress went backwards: {seen}"
        assert seen[-1] == len(tasks)


class TestSerialPath:
    """The in-process path runs the pool's chunk code and failure contract."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_custom_task_fn_is_called(self, jobs):
        # jobs=2 with a single missing cell also runs in-process.
        calls = []

        def fake(model, app, length):
            calls.append((model, app, length))
            return _dummy_result(model, app, length).to_dict()

        engine = ExperimentEngine(500, jobs=jobs, task_fn=fake)
        results = engine.run([("N", "swim")])
        assert calls == [("N", "swim", 500)]
        assert results == {("N", "swim"): _dummy_result("N", "swim", 500)}
        assert engine.simulations_run == 1

    def test_task_failure_names_the_cell(self):
        engine = ExperimentEngine(100, task_fn=_raising_task)
        with pytest.raises(ExperimentError) as excinfo:
            engine.run([("TON", "gzip"), ("TON", "swim")])
        message = str(excinfo.value)
        assert "TON/swim" in message
        assert "ValueError: synthetic worker failure" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_simulation_failure_names_the_cell(self, tmp_path, monkeypatch):
        def boom(self, source, options=None, **kwargs):
            raise RuntimeError("synthetic simulation failure")

        monkeypatch.setattr(engine_mod.ParrotSimulator, "simulate", boom)
        engine = ExperimentEngine(500, artifact_root=tmp_path)
        with pytest.raises(ExperimentError) as excinfo:
            engine.run([("TON", "swim")])
        assert "TON/swim" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)


class TestChunkPlanning:
    def test_one_chunk_per_app(self):
        tasks = [("N", "gzip"), ("TON", "gzip"), ("N", "swim"), ("TON", "swim")]
        chunks = ExperimentEngine._plan_chunks(tasks, 2)
        assert sorted(sorted(c) for c in chunks) == [
            [("N", "gzip"), ("TON", "gzip")],
            [("N", "swim"), ("TON", "swim")],
        ]

    def test_splits_to_saturate_workers(self):
        tasks = [(m, "gzip") for m in ("N", "T", "TON", "TOW")]
        chunks = ExperimentEngine._plan_chunks(tasks, 4)
        assert len(chunks) == 4
        assert sorted(c[0] for c in chunks) == sorted(tasks)

    def test_chunks_stay_single_app(self):
        tasks = [
            (m, a) for a in ("gzip", "swim", "vpr") for m in ("N", "TON")
        ]
        for jobs in (1, 2, 4, 8):
            for chunk in ExperimentEngine._plan_chunks(tasks, jobs):
                assert len({app for _, app in chunk}) == 1

    def test_split_stops_at_single_cells(self):
        tasks = [("N", "gzip"), ("TON", "gzip")]
        chunks = ExperimentEngine._plan_chunks(tasks, 8)
        assert sorted(len(c) for c in chunks) == [1, 1]

    def test_covers_every_task_exactly_once(self):
        tasks = [
            (m, a) for a in ("gzip", "swim", "vpr", "eon", "art")
            for m in ("N", "T", "TON")
        ]
        chunks = ExperimentEngine._plan_chunks(tasks, 4)
        flat = [task for chunk in chunks for task in chunk]
        assert sorted(flat) == sorted(tasks)


class TestRunnerIntegration:
    def test_from_scale(self):
        runner = ExperimentRunner.from_scale(
            Scale(apps=3, length=1500, jobs=2, cache=False)
        )
        assert runner.max_apps == 3 and runner.length == 1500
        assert runner.jobs == 2 and runner.cache is False
        assert runner.engine.store is None

    def test_runner_counts_store_hits(self, tmp_path):
        first = ExperimentRunner(
            length=1200, max_apps=2, cache=True, cache_dir=tmp_path
        )
        first.results("N")
        assert first.simulations_run == 2 and first.cache_hits == 0

        second = ExperimentRunner(
            length=1200, max_apps=2, cache=True, cache_dir=tmp_path
        )
        assert second.results("N") == first.results("N")
        assert second.simulations_run == 0 and second.cache_hits == 2

    def test_parallel_runner_grid_matches_serial(self, tmp_path):
        serial = ExperimentRunner(length=1200, max_apps=2)
        parallel = ExperimentRunner(
            length=1200, max_apps=2, jobs=2, cache=True, cache_dir=tmp_path
        )
        assert serial.grid(["N", "TON"]) == parallel.grid(["N", "TON"])

    def test_grid_memoises_across_calls(self):
        runner = ExperimentRunner(length=1200, max_apps=2)
        runner.grid(["N", "TON"])
        runs = runner.simulations_run
        runner.grid(["N", "TON"])
        runner.results("N")
        assert runner.simulations_run == runs
        assert runner.runs_cached == 4
