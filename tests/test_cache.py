"""The on-disk cache contract (:mod:`repro.cache`), run for every cache.

The result store, the trace-artifact cache and the compiled-plan cache
share one primitive, :class:`~repro.cache.DiskCache`.  Each test here
runs once per cache through that cache's own write and load calls:
damaged entries (truncated, foreign schema or header, decoding to the
wrong type) are quarantined and rewritable, a write that fails midway
leaves no tmp behind and names the key, dead writers' tmps are swept and
live writers' tmps kept, listings survive shards and entries deleted
underneath them, and concurrent writer processes leave one valid entry.
"""

from __future__ import annotations

import errno
import json
import marshal
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.cache as cache_mod
from repro.core.results import SimulationResult
from repro.experiments.engine import ResultStore
from repro.pipeline.specialize import CompiledPlanCache, _header
from repro.workloads.suite import application
from repro.workloads.tracefile import ArtifactCache, artifact_key

LENGTH = 1500


class StoreCase:
    """The result store: one JSON record per key."""

    name = "store"
    best_effort = False
    dir_entries = False

    @staticmethod
    def make(root):
        return ResultStore(root)

    @staticmethod
    def key(index: int) -> str:
        return f"{index:02x}" + "0" * 62

    def put(self, cache, index: int) -> None:
        cache.store(self.key(index), SimulationResult(
            app_name="gzip", suite="SpecInt", model_name="N",
            instructions=100 + index, cycles=50.0,
        ))

    def get(self, cache, index: int):
        return cache.load(self.key(index))

    def damaged_file(self, cache, index: int) -> Path:
        return cache.path(self.key(index))

    def foreign(self, cache, index: int) -> None:
        path = self.damaged_file(cache, index)
        record = json.loads(path.read_text())
        record["result"]["schema_version"] = -1
        path.write_text(json.dumps(record))

    def wrong_type(self, cache, index: int) -> None:
        self.damaged_file(cache, index).write_text('["not", "a", "record"]')

    @staticmethod
    def break_writes(monkeypatch) -> None:
        monkeypatch.setattr(Path, "write_text", _enospc_midway(Path.write_text))


class ArtifactCase:
    """The artifact cache: one directory per compiled stream."""

    name = "artifacts"
    best_effort = False
    dir_entries = True
    APPS = ("gzip", "swim")

    @staticmethod
    def make(root):
        return ArtifactCache(root)

    def key(self, index: int) -> str:
        app = application(self.APPS[index])
        return artifact_key(app.name, app.seed, LENGTH)

    def put(self, cache, index: int) -> None:
        cache.get_or_compile(application(self.APPS[index]), LENGTH)

    def get(self, cache, index: int):
        app = application(self.APPS[index])
        return cache.load(app.name, app.seed, LENGTH)

    def damaged_file(self, cache, index: int) -> Path:
        return cache.path(self.key(index)) / "dyn.npy"

    def foreign(self, cache, index: int) -> None:
        path = cache.path(self.key(index)) / "meta.json"
        meta = json.loads(path.read_text())
        meta["schema"] = -1
        path.write_text(json.dumps(meta))

    def wrong_type(self, cache, index: int) -> None:
        np.save(self.damaged_file(cache, index), np.zeros(LENGTH))

    @staticmethod
    def break_writes(monkeypatch) -> None:
        monkeypatch.setattr(np, "save", _enospc_midway(np.save))


class PlanCase:
    """The compiled-plan cache: one marshalled code object per key."""

    name = "plans"
    best_effort = True  # a failed plan write only costs a recompile
    dir_entries = False

    @staticmethod
    def make(root):
        return CompiledPlanCache(root)

    @staticmethod
    def key(index: int) -> str:
        return f"{index:02x}" + "0" * 62

    def put(self, cache, index: int) -> None:
        source = f"def replay(core, mem_lats):\n    core.extra = {index}\n"
        cache.store(self.key(index), compile(source, "<test>", "exec"))

    def get(self, cache, index: int):
        return cache.read(self.key(index))

    def damaged_file(self, cache, index: int) -> Path:
        return cache.path(self.key(index))

    def foreign(self, cache, index: int) -> None:
        path = self.damaged_file(cache, index)
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])

    def wrong_type(self, cache, index: int) -> None:
        self.damaged_file(cache, index).write_bytes(
            _header() + marshal.dumps(2.5)
        )

    @staticmethod
    def break_writes(monkeypatch) -> None:
        monkeypatch.setattr(Path, "write_bytes",
                            _enospc_midway(Path.write_bytes))


CASES = {case.name: case for case in (StoreCase(), ArtifactCase(), PlanCase())}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def _enospc_midway(write):
    """``write`` that stores half its data, then fails as a full disk."""

    def failing(target, data, *args, **kwargs):
        write(target, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(target))

    return failing


def _truncate(case, cache, index: int) -> None:
    path = case.damaged_file(cache, index)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _tmp_names(root: Path) -> list[str]:
    return sorted(path.name for path in root.rglob("*") if ".tmp." in path.name)


def _writer_tmp(case, cache, index: int, pid: int) -> Path:
    """A half-built entry for ``index`` as writer ``pid`` leaves it."""
    path = cache.path(case.key(index))
    tmp = path.with_name(f"{path.name}.tmp.{pid}")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    if case.dir_entries:
        tmp.mkdir()
        (tmp / "dyn.npy").write_bytes(b"half-written")
    else:
        tmp.write_bytes(b"half-written")
    return tmp


@pytest.mark.parametrize("damage", ["truncated", "foreign", "wrong_type"])
def test_damaged_entry_is_quarantined(case, damage, tmp_path):
    damage_entry = {
        "truncated": lambda cache, i: _truncate(case, cache, i),
        "foreign": case.foreign,
        "wrong_type": case.wrong_type,
    }[damage]
    cache = case.make(tmp_path)
    case.put(cache, 0)
    case.put(cache, 1)

    damage_entry(cache, 0)
    assert case.get(cache, 0) is None
    assert cache.quarantined == 1
    assert not cache.path(case.key(0)).exists()

    case.put(cache, 0)  # the key is writable again
    assert case.get(cache, 0) is not None
    damage_entry(cache, 0)
    info = cache.info()
    assert (info.entries, info.quarantined) == (1, 1)
    assert info.total_bytes == cache_mod._footprint(cache.path(case.key(1)))
    assert cache.keys() == [case.key(1)]


def test_unreadable_entry_is_a_miss_left_in_place(case, tmp_path,
                                                  monkeypatch):
    cache = case.make(tmp_path)
    case.put(cache, 0)

    def denied(self, path):
        raise PermissionError(errno.EACCES, "denied", str(path))

    monkeypatch.setattr(type(cache), "decode", denied)
    assert case.get(cache, 0) is None
    assert cache.quarantined == 0
    assert cache.path(case.key(0)).exists()


def test_failed_write_leaves_no_tmp_and_names_the_key(case, tmp_path,
                                                      monkeypatch):
    cache = case.make(tmp_path)
    key = case.key(0)

    def fill(tmp):
        tmp.write_bytes(b"half")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with pytest.raises(OSError, match=key) as caught:
        cache.write(key, fill)
    assert caught.value.errno == errno.ENOSPC
    assert case.name in str(caught.value)
    assert _tmp_names(tmp_path) == []

    # The same failure midway through the cache's own write path.
    with monkeypatch.context() as patch:
        case.break_writes(patch)
        if case.best_effort:
            case.put(cache, 0)
        else:
            with pytest.raises(OSError, match=key):
                case.put(cache, 0)
    assert _tmp_names(tmp_path) == []
    assert case.get(cache, 0) is None and cache.keys() == []


def test_dead_writer_tmp_is_swept(case, tmp_path, dead_pid):
    cache = case.make(tmp_path)
    case.put(cache, 0)
    orphans = [_writer_tmp(case, cache, index, dead_pid) for index in (0, 1)]
    info = cache.info()
    assert (info.stale_tmp, info.entries) == (2, 1)
    assert not any(orphan.exists() for orphan in orphans)
    assert cache.info().stale_tmp == 0

    orphan = _writer_tmp(case, cache, 0, dead_pid)
    assert cache.clear() == 1  # swept, but not counted as an entry
    assert not orphan.exists()
    assert _tmp_names(tmp_path) == [] and cache.keys() == []


def test_live_writer_tmp_is_kept(case, tmp_path):
    cache = case.make(tmp_path)
    case.put(cache, 0)
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"])
    try:
        writers = [_writer_tmp(case, cache, 0, os.getpid()),
                   _writer_tmp(case, cache, 1, child.pid)]
        info = cache.info()
        assert (info.stale_tmp, info.entries) == (0, 1)
        assert cache.clear() == 1
        assert all(writer.exists() for writer in writers)
        assert cache.keys() == []
    finally:
        child.kill()
        child.wait(timeout=60)


def test_tmp_swept_by_concurrent_sweeper(case, tmp_path, monkeypatch,
                                         dead_pid):
    cache = case.make(tmp_path)
    orphan = _writer_tmp(case, cache, 0, dead_pid)

    def other_sweeper_first(pid):
        cache_mod._remove(orphan)
        return False

    monkeypatch.setattr(cache_mod, "_alive", other_sweeper_first)
    assert cache.info().stale_tmp == 0  # skipped, not raised
    assert not orphan.exists()


@pytest.mark.parametrize("op", ["info", "clear", "keys"])
def test_shard_deleted_mid_walk(case, op, tmp_path, monkeypatch):
    cache = case.make(tmp_path)
    case.put(cache, 0)
    case.put(cache, 1)
    doomed = cache.path(case.key(0)).parent
    assert doomed != cache.path(case.key(1)).parent
    real_scandir = os.scandir

    def racing_scandir(path):
        if isinstance(path, (str, os.PathLike)) \
                and Path(path) == doomed and doomed.exists():
            shutil.rmtree(doomed)  # the "concurrent" deleter wins
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", racing_scandir)
    result = getattr(cache, op)()
    expected = {"info": lambda info: info.entries == 1,
                "clear": lambda removed: removed == 1,
                "keys": lambda keys: keys == [case.key(1)]}[op]
    assert expected(result)


@pytest.mark.parametrize("op", ["info", "clear"])
def test_entry_deleted_mid_walk(case, op, tmp_path, monkeypatch):
    cache = case.make(tmp_path)
    case.put(cache, 0)
    listed = cache.keys() + ["cd" + "0" * 62]  # gone before it is read
    monkeypatch.setattr(cache, "keys", lambda: list(listed))
    if op == "info":
        info = cache.info()
        assert (info.entries, info.quarantined) == (1, 0)
        assert info.total_bytes > 0
    else:
        assert cache.clear() == 1


def test_root_strips_and_expands_env(case, tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_DIR", "~/rc ")
    assert cache_mod.cache_root() == tmp_path / "rc"
    cache = case.make(None)
    assert cache.root == tmp_path / "rc" / cache.subdir


WRITERS = 4


def _write_concurrently(name: str, root: str, barrier, rounds: int) -> None:
    case = CASES[name]
    cache = case.make(root)
    barrier.wait(timeout=120)
    for _ in range(rounds):
        case.put(cache, 0)


def test_concurrent_writers_leave_one_valid_entry(case, tmp_path):
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(WRITERS)
    rounds = 1 if case.dir_entries else 40  # artifacts: later rounds hit
    writers = [
        context.Process(target=_write_concurrently, daemon=True,
                        args=(case.name, str(tmp_path), barrier, rounds))
        for _ in range(WRITERS)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=300)
    assert [writer.exitcode for writer in writers] == [0] * WRITERS
    cache = case.make(tmp_path)
    assert cache.keys() == [case.key(0)]
    assert case.get(cache, 0) is not None
    assert _tmp_names(tmp_path) == []
    assert cache.info().entries == 1
