"""Scale-out sharding: partitioning, plans, execution and store merge.

The merge properties are the heart of the scale-out story and are tested
as *properties* (Hypothesis): over randomly populated stores drawn from
one content-keyed universe, ``merge(A, B) == merge(B, A)`` and
``merge(S, S) == S`` — plus the adversarial cases (conflicts, corrupt
records) as examples.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.results import SCHEMA_VERSION, SimulationResult
from repro.errors import ExperimentError
from repro.experiments.engine import ExperimentEngine, ResultStore
from repro.experiments.shard import (
    ShardPlan,
    merge_stores,
    missing_keys,
    partition_tasks,
    plan_grid,
    run_shard,
)
from repro.models.configs import MODEL_NAMES
from repro.pipeline.columnar import ExecutionBackend
from repro.sampling import SamplingConfig

# -- partitioning -------------------------------------------------------------

APPS = ["gzip", "swim", "ammp", "excel", "gcc", "mesa"]


def _grid(napps: int, nmodels: int) -> list[tuple[str, str]]:
    return [
        (model, app)
        for app in APPS[:napps]
        for model in MODEL_NAMES[:nmodels]
    ]


class TestPartitionTasks:
    def test_deterministic(self):
        tasks = _grid(4, 3)
        assert partition_tasks(tasks, 3) == partition_tasks(list(tasks), 3)

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            partition_tasks(_grid(2, 2), 0)

    def test_duplicates_dropped(self):
        tasks = _grid(2, 2)
        assert partition_tasks(tasks * 3, 2) == partition_tasks(tasks, 2)

    def test_app_affinity_when_shards_divide_evenly(self):
        # 2 apps x 3 models onto 2 shards: each shard is single-app, so a
        # host resolves exactly one compiled-trace artifact.
        bins = partition_tasks(_grid(2, 3), 2)
        for shard in bins:
            assert len({app for _, app in shard}) == 1

    @given(
        napps=st.integers(min_value=1, max_value=6),
        nmodels=st.integers(min_value=1, max_value=7),
        shards=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_is_balanced_and_exact(self, napps, nmodels, shards):
        tasks = _grid(napps, nmodels)
        bins = partition_tasks(tasks, shards)
        assert len(bins) == shards
        flat = [task for shard in bins for task in shard]
        assert sorted(flat) == sorted(tasks)  # exact cover, no dupes
        loads = sorted(len(shard) for shard in bins)
        if len(tasks) >= shards:
            assert loads[-1] - loads[0] <= 1  # balanced to one cell


# -- the plan -----------------------------------------------------------------


class TestShardPlan:
    def _plan(self, **overrides) -> ShardPlan:
        defaults = dict(models=["N", "TON"], apps=["gzip", "swim"],
                        length=1500, shards=2)
        defaults.update(overrides)
        return plan_grid(**defaults)

    def test_round_trip(self):
        plan = self._plan(sampling=SamplingConfig(),
                          backend=ExecutionBackend.COMPILED)
        again = ShardPlan.from_dict(plan.to_dict())
        assert again == plan
        assert again.digest() == plan.digest()

    def test_save_load(self, tmp_path):
        plan = self._plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert ShardPlan.load(path) == plan

    def test_unreadable_file_raises(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError, match="cannot read"):
            ShardPlan.load(path)

    @pytest.mark.parametrize("tamper", [
        {"length": 2500},
        {"shards": [[["N", "gzip"]]]},
        {"backend": "compiled"},
    ])
    def test_tampered_plan_is_rejected(self, tamper):
        payload = self._plan().to_dict()
        payload.update(tamper)
        with pytest.raises(ExperimentError, match="digest mismatch"):
            ShardPlan.from_dict(payload)

    def test_schema_drift_is_rejected(self):
        payload = self._plan().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ExperimentError, match="schema"):
            ShardPlan.from_dict(payload)

    def test_unsupported_plan_version_is_rejected(self):
        payload = self._plan().to_dict()
        payload["plan_version"] = 99
        with pytest.raises(ExperimentError, match="format v99"):
            ShardPlan.from_dict(payload)

    def test_unknown_names_rejected(self):
        with pytest.raises(ExperimentError, match="unknown model"):
            plan_grid(models=["N", "NOPE"], apps=1, length=100, shards=1)
        with pytest.raises(ExperimentError, match="unknown application"):
            plan_grid(models=["N"], apps=["nope"], length=100, shards=1)

    def test_empty_plan_rejected(self):
        with pytest.raises(ExperimentError, match="at least one cell"):
            ShardPlan(length=100, shards=((),))

    def test_run_keys_cover_every_cell(self):
        plan = self._plan()
        keys = plan.run_keys()
        assert sorted(keys) == sorted(
            f"{model}/{app}" for model, app in plan.cells
        )
        assert len(set(keys.values())) == len(keys)  # content-distinct


# -- shard execution ----------------------------------------------------------


class TestRunShard:
    def test_runs_only_its_cells(self, tmp_path):
        plan = plan_grid(models=["N", "TON"], apps=["gzip", "swim"],
                         length=1200, shards=2)
        report = run_shard(plan, 0, store_root=tmp_path / "s0")
        assert report.cells == len(plan.shards[0])
        assert report.simulated == report.cells
        store = ResultStore(tmp_path / "s0")
        assert store.info().entries == report.cells

    def test_rerun_serves_from_store(self, tmp_path):
        plan = plan_grid(models=["N"], apps=["gzip"], length=1200, shards=1)
        run_shard(plan, 0, store_root=tmp_path)
        again = run_shard(plan, 0, store_root=tmp_path)
        assert again.simulated == 0 and again.from_store == 1

    def test_index_out_of_range(self, tmp_path):
        plan = plan_grid(models=["N"], apps=["gzip"], length=100, shards=1)
        with pytest.raises(ExperimentError, match="out of range"):
            run_shard(plan, 1, store_root=tmp_path)

    def test_progress_carries_shard_label(self, tmp_path):
        plan = plan_grid(models=["N"], apps=["gzip", "swim"],
                         length=1200, shards=2)
        seen = []
        run_shard(plan, 1, store_root=tmp_path,
                  progress=lambda *call: seen.append(call))
        assert seen and all(c[2].startswith("shard 2/2:") for c in seen)

    def test_missing_keys_audits_completeness(self, tmp_path):
        plan = plan_grid(models=["N"], apps=["gzip", "swim"],
                         length=1200, shards=2)
        store = ResultStore(tmp_path)
        assert len(missing_keys(plan, store)) == 2
        run_shard(plan, 0, store_root=tmp_path)
        left = missing_keys(plan, store)
        assert sorted(left) == sorted(
            f"{model}/{app}" for model, app in plan.shards[1]
        )
        run_shard(plan, 1, store_root=tmp_path)
        assert missing_keys(plan, store) == []


# -- merging ------------------------------------------------------------------

# One content-keyed universe of (key, record) pairs: in the real system a
# run key *derives from* the run request, so two stores can only ever
# hold the same payload under one key.  The strategies below draw store
# populations as subsets of this universe.
UNIVERSE_KEYS = [f"{i:02x}" + f"{i:062x}" for i in range(12)]


def _variant(template: SimulationResult, index: int) -> SimulationResult:
    payload = template.to_dict()
    payload["cycles"] = payload["cycles"] + index  # distinct content
    return SimulationResult.from_dict(payload)


def _populate(root, template, indices) -> ResultStore:
    store = ResultStore(root)
    for i in indices:
        store.store(UNIVERSE_KEYS[i], _variant(template, i))
    return store


def _contents(store: ResultStore) -> dict[str, str]:
    return {key: store.path(key).read_text() for key in store.keys()}


subsets = st.sets(
    st.integers(min_value=0, max_value=len(UNIVERSE_KEYS) - 1), max_size=8
)


class TestMergeProperties:
    @given(a=subsets, b=subsets)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_merge_is_commutative(self, tmp_path_factory, swim_result_ton,
                                  a, b):
        base = tmp_path_factory.mktemp("merge")
        store_a = _populate(base / "a", swim_result_ton, a)
        store_b = _populate(base / "b", swim_result_ton, b)
        ab = ResultStore(base / "ab")
        ab.merge_from(store_a)
        ab.merge_from(store_b)
        ba = ResultStore(base / "ba")
        ba.merge_from(store_b)
        ba.merge_from(store_a)
        assert _contents(ab) == _contents(ba)
        assert set(ab.keys()) == {UNIVERSE_KEYS[i] for i in a | b}

    @given(s=subsets)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_merge_is_idempotent(self, tmp_path_factory, swim_result_ton, s):
        base = tmp_path_factory.mktemp("merge")
        store = _populate(base / "s", swim_result_ton, s)
        before = _contents(store)
        report = store.merge_from(store.root)  # merge(S, S)
        assert _contents(store) == before
        assert report.copied == 0 and report.identical == len(s)
        assert not report.conflicts and report.quarantined == 0


class TestMergeExamples:
    def test_conflict_is_audited_and_destination_wins(
        self, tmp_path, swim_result_ton
    ):
        key = UNIVERSE_KEYS[0]
        dest = ResultStore(tmp_path / "dest")
        dest.store(key, _variant(swim_result_ton, 0))
        src = ResultStore(tmp_path / "src")
        src.store(key, _variant(swim_result_ton, 1))  # same key, new payload
        kept = _contents(dest)[key]
        report = dest.merge_from(src)
        assert report.conflicts == [key] and report.copied == 0
        assert _contents(dest)[key] == kept  # destination record survives

    def test_corrupt_source_records_are_quarantined(
        self, tmp_path, swim_result_ton
    ):
        src = ResultStore(tmp_path / "src")
        src.store(UNIVERSE_KEYS[0], _variant(swim_result_ton, 0))
        garbled = src.path(UNIVERSE_KEYS[1])
        garbled.parent.mkdir(parents=True, exist_ok=True)
        garbled.write_text("{not json")
        lying = src.path(UNIVERSE_KEYS[2])
        record = json.loads(src.path(UNIVERSE_KEYS[0]).read_text())
        lying.parent.mkdir(parents=True, exist_ok=True)
        lying.write_text(json.dumps(record))  # embedded key != filename
        dest = ResultStore(tmp_path / "dest")
        report = dest.merge_from(src)
        assert report.copied == 1 and report.quarantined == 2
        assert not garbled.exists() and not lying.exists()  # quarantined
        assert dest.merge_from(src).scanned == 1  # next pass is clean

    def test_keep_corrupt_records_when_asked(self, tmp_path):
        src = ResultStore(tmp_path / "src")
        garbled = src.path(UNIVERSE_KEYS[1])
        garbled.parent.mkdir(parents=True, exist_ok=True)
        garbled.write_text("{not json")
        report = ResultStore(tmp_path / "dest").merge_from(
            src, quarantine=False
        )
        assert report.quarantined == 1 and garbled.exists()

    def test_merge_stores_fans_out(self, tmp_path, swim_result_ton):
        for index, name in enumerate(["s0", "s1"]):
            _populate(tmp_path / name, swim_result_ton, {index})
        reports = merge_stores(
            tmp_path / "merged", [tmp_path / "s0", tmp_path / "s1"]
        )
        assert [r.copied for r in reports] == [1, 1]
        assert len(ResultStore(tmp_path / "merged").keys()) == 2


# -- end to end: shard, merge, replay ----------------------------------------


class TestShardedGridEndToEnd:
    def test_merged_store_replays_grid_without_simulating(self, tmp_path):
        plan = plan_grid(models=["N", "TON"], apps=["gzip", "swim"],
                         length=1200, shards=2)
        for index in range(2):
            run_shard(plan, index, store_root=tmp_path / f"s{index}")
        merge_stores(tmp_path / "merged",
                     [tmp_path / "s0", tmp_path / "s1"])
        merged = ResultStore(tmp_path / "merged")
        assert missing_keys(plan, merged) == []
        replay = ExperimentEngine(plan.length, store=merged)
        replay.run(plan.cells)
        assert replay.simulations_run == 0
        assert replay.cache_hits == len(plan.cells)
