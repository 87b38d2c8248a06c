"""One content-addressed on-disk cache under ``$REPRO_CACHE_DIR``.

The result store (:class:`~repro.experiments.engine.ResultStore`), the
trace-artifact cache (:class:`~repro.workloads.tracefile.ArtifactCache`)
and the compiled-plan cache
(:class:`~repro.pipeline.specialize.CompiledPlanCache`) are subclasses of
:class:`DiskCache`, which owns every decision they share:

* **Root.** :func:`cache_root` is ``$REPRO_CACHE_DIR`` (stripped, ``~``
  expanded) or ``~/.cache/repro``; each cache lives in its own
  subdirectory of it (the store directly in it).
* **Layout.** One entry per key at ``<cache>/<k[:2]>/<k><suffix>``; an
  entry is a file or a directory.  Scans visit only two-hex-digit shard
  directories, so the store never walks ``artifacts/`` or ``compiled/``
  as if they were shards of its own.
* **Atomic write.** An entry is built at ``<entry>.tmp.<pid>`` and renamed
  into place with ``os.replace``.  On any failure the tmp is removed; an
  ``OSError`` is re-raised with the cache and key named in it.
* **Read.** A missing entry is a miss.  An entry that fails to decode is
  quarantined: deleted and counted.  Any other ``OSError`` is a miss that
  leaves the entry in place.
* **Sweep.** :meth:`DiskCache.info` and :meth:`DiskCache.clear` remove a
  ``.tmp.<pid>`` only when that pid is not a live process on this host,
  so a concurrent writer's half-built entry is never pulled from under it.
* **Snapshot.** :meth:`DiskCache.info` validates every entry with the
  decoder reads use, so an entry it counts is one a read would serve.

Every listing uses ``os.scandir`` and tolerates entries deleted underneath
it, so any number of processes may share one root.  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

_TMP = ".tmp."
_HEX = frozenset("0123456789abcdef")


def cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` (stripped, ``~`` expanded), else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return Path(env).expanduser() if env else Path.home() / ".cache" / "repro"


@dataclass(frozen=True, slots=True)
class CacheInfo:
    """A snapshot of one cache, taken by :meth:`DiskCache.info`.

    ``stale_tmp`` counts ``.tmp.<pid>`` leftovers of dead writers that the
    snapshot swept; ``quarantined`` counts entries it found undecodable
    and deleted.
    """

    path: Path
    entries: int
    total_bytes: int
    schema_version: int
    stale_tmp: int = 0
    quarantined: int = 0


class DiskCache:
    """A content-keyed directory of entries; a subclass sets the class
    attributes below, implements :meth:`decode` and reads and writes
    through :meth:`read` and :meth:`write`.  ``quarantined`` counts every
    undecodable entry this instance found."""

    #: Label in messages and in ``repro cache`` output.
    name = "cache"
    #: Directory under :func:`cache_root` used when no root is given.
    subdir = ""
    #: Entry name after the key (empty for directory entries).
    suffix = ""
    #: Format version reported by :meth:`info`.
    schema_version = 0

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else cache_root() / self.subdir
        self.quarantined = 0

    def decode(self, path: Path) -> Any:
        """Decode the entry at ``path``; raise on damaged bytes."""
        raise NotImplementedError

    def path(self, key: str) -> Path:
        """Where the entry for ``key`` lives."""
        return self.root / key[:2] / f"{key}{self.suffix}"

    def read(self, key: str, decode: Callable[[Path], Any] | None = None,
             *, quarantine: bool = True) -> Any:
        """The entry for ``key`` decoded by ``decode`` (default
        :meth:`decode`), or ``None`` on a miss; ``quarantine=False`` counts
        an undecodable entry but leaves it on disk."""
        path = self.path(key)
        try:
            return (decode or self.decode)(path)
        except FileNotFoundError as exc:
            # The entry itself is absent: a miss.  A directory entry that
            # lacks one of its files is damaged.
            if exc.filename == str(path) or not path.is_dir():
                return None
        except OSError:
            return None
        except Exception:  # noqa: BLE001 - json, marshal and numpy each
            pass           # raise their own errors for damaged bytes
        self.quarantined += 1
        if quarantine:
            _remove(path)
        return None

    def write(self, key: str, fill: Callable[[Path], object]) -> None:
        """Build the entry for ``key`` as ``fill(tmp)`` creates ``tmp``,
        then rename it into place.  A file entry's last writer wins; a
        directory entry's first writer does, and later ones return quietly.
        """
        path = self.path(key)
        tmp = path.with_name(f"{path.name}{_TMP}{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fill(tmp)
            os.replace(tmp, path)
        except BaseException as exc:
            _remove(tmp)
            if not isinstance(exc, OSError):
                raise
            if path.is_dir():
                return
            message = f"{self.name} cache: cannot write {key}: {exc.strerror or exc}"
            raise (OSError(exc.errno, message) if exc.errno
                   else OSError(message)) from exc

    def keys(self) -> list[str]:
        """Keys of every entry on disk (sorted)."""
        cut = len(self.suffix)
        return [name[:len(name) - cut] for shard, name in self._names()
                if name.startswith(shard[-2:]) and name.endswith(self.suffix)
                and _TMP not in name]

    def info(self) -> CacheInfo:
        """Sweep dead writers' tmps, then count and size the entries a
        read would serve, quarantining the ones it would not."""
        stale = self._sweep()
        before = self.quarantined
        entries = total = 0
        for key in self.keys():
            if self.read(key) is not None:
                entries += 1
                total += _footprint(self.path(key))
        return CacheInfo(self.root, entries, total, self.schema_version,
                         stale, self.quarantined - before)

    def clear(self) -> int:
        """Delete every entry and dead writers' tmps; returns the entries
        removed.  An entry deleted underneath the walk is not counted."""
        self._sweep()
        removed = sum(_remove(self.path(key)) for key in self.keys())
        for shard in self._shards():
            try:
                os.rmdir(shard)
            except OSError:
                pass  # holds a live writer's tmp or a foreign file
        return removed

    def _shards(self) -> list[str]:
        try:
            with os.scandir(self.root) as listing:
                return sorted(
                    entry.path for entry in listing
                    if len(entry.name) == 2 and _HEX.issuperset(entry.name)
                    and entry.is_dir(follow_symlinks=False)
                )
        except OSError:
            return []

    def _names(self) -> list[tuple[str, str]]:
        """``(shard, name)`` of everything in the shards, skipping shards
        deleted between the root listing and their own."""
        found = []
        for shard in self._shards():
            try:
                with os.scandir(shard) as listing:
                    names = sorted(entry.name for entry in listing)
            except OSError:
                continue
            found.extend((shard, name) for name in names)
        return found

    def _sweep(self) -> int:
        swept = 0
        for shard, name in self._names():
            _, tmp, owner = name.rpartition(_TMP)
            if tmp and not _alive(owner) and _remove(Path(shard, name)):
                swept += 1
        return swept


def _alive(pid: str) -> bool:
    """Whether ``pid`` may name a live process on this host."""
    if not pid.isdecimal() or int(pid) == 0:
        return False
    if os.name != "posix":
        return True  # no signal-0 probe here: keep the tmp
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except OSError:
        pass  # e.g. alive but owned by another user
    return True


def _remove(path: Path) -> bool:
    """Delete a file or a directory tree; False if it could not be."""
    try:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()
    except OSError:
        return False
    return True


def _footprint(path: Path) -> int:
    """Bytes held by one entry (a file, or the files of a directory)."""
    try:
        if path.is_dir():
            with os.scandir(path) as listing:
                return sum(entry.stat().st_size for entry in listing
                           if entry.is_file())
        return path.stat().st_size
    except OSError:
        return 0
