"""Content-addressed result cache with an LRU byte budget.

One cache entry is one completed job artifact -- the child CLI's exact
stdout bytes -- stored as one checkpoint record: chunk 0 of a
:class:`~repro.perf.checkpoint.CheckpointStore` named by the job's
cache key, with payload kind ``job-stdout``::

    <root>/<key>/chunk_000000.json

The store is the only code that writes, verifies or quarantines the
record.  Its atomic write makes the one file its own commit point, and
every :meth:`ResultCache.get` re-checks the record's schema, key, kind
and SHA-256: truncation, a flipped bit or a foreign key quarantines
the file (renamed ``*.corrupt``) and reads as a miss.  **A corrupt or
partial artifact is never served.**  The bytes travel as JSON text
decoded with the ``surrogateescape`` error handler and are encoded back
with it, so any byte string round-trips exactly
(:func:`save_stdout` / :func:`load_stdout`; the service's partial
artifacts are the same record with kind ``partial-stdout``).

Capacity is a byte budget, not an entry count: after every put the
least-recently-used entries are evicted until the total size of the
record files on disk fits (the entry just written is never the one
evicted).  Recency survives restarts approximately via record mtimes;
within a process it is exact.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.ioutil import fsync_dir
from repro.perf.checkpoint import CheckpointStats, CheckpointStore

__all__ = ["CacheStats", "ResultCache", "load_stdout", "save_stdout"]


def save_stdout(store: CheckpointStore, stdout: bytes) -> bool:
    """Durably record ``stdout`` as the store's chunk 0; False if the
    write failed (a full disk)."""
    text = stdout.decode("utf-8", "surrogateescape")
    return store.save(0, {"stdout": text})


def load_stdout(store: CheckpointStore) -> Optional[bytes]:
    """The verified bytes of the store's chunk 0, or ``None`` when the
    record is absent or was just quarantined."""
    payload, hit = store.load(0)
    if not hit:
        return None
    return payload["stdout"].encode("utf-8", "surrogateescape")


@dataclass
class CacheStats:
    """Accounting for one cache's lifetime (mirrored into service.*)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corruptions: int = 0
    corrupt_reasons: List[str] = field(default_factory=list)


class ResultCache:
    """Disk-backed artifact cache keyed by canonical config hash.

    Args:
        root: cache directory (created on demand).
        byte_budget: total bytes of record files on disk to retain (the
            JSON records, not the raw stdout they hold);
            least-recently-used entries are evicted beyond it.  ``None``
            disables eviction.
    """

    def __init__(
        self, root: Union[str, Path], byte_budget: Optional[int] = None
    ) -> None:
        if byte_budget is not None and byte_budget < 0:
            raise ValueError(f"byte_budget must be >= 0, got {byte_budget}")
        self._root = Path(root)
        self._budget = byte_budget
        self._stats = CacheStats()
        self._lock = threading.Lock()
        # key -> record bytes; insertion order == recency (oldest first).
        self._recency: Dict[str, int] = {}
        self._rescan()

    @property
    def root(self) -> Path:
        return self._root

    @property
    def stats(self) -> CacheStats:
        return self._stats

    @property
    def byte_budget(self) -> Optional[int]:
        return self._budget

    def keys(self) -> List[str]:
        """Cached keys, least-recently-used first."""
        with self._lock:
            return list(self._recency)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(self._recency.values())

    def _store(self, key: str) -> CheckpointStore:
        return CheckpointStore(self._root, key, kind="job-stdout")

    def _rescan(self) -> None:
        """Rebuild the recency index from disk (mtime order, oldest first).

        Runs at construction so a restarted server inherits the previous
        process's cache; validity is still checked lazily per ``get``.
        """
        if not self._root.is_dir():
            return
        entries: List[Tuple[float, str, int]] = []
        for directory in self._root.iterdir():
            try:
                stat = self._store(directory.name).path_for(0).stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, directory.name, stat.st_size))
        for _, key, size in sorted(entries):
            self._recency[key] = size

    def get(self, key: str) -> Optional[bytes]:
        """The cached artifact, or ``None`` -- never corrupt bytes.

        A present-but-invalid record is quarantined by the store and
        reported as a miss so the caller recomputes.
        """
        with self._lock:
            store = self._store(key)
            stdout = load_stdout(store)
            self._count(key, store.stats)
            if stdout is None:
                self._recency.pop(key, None)
                return None
            self._touch(key)
            return stdout

    def put(self, key: str, stdout: bytes) -> bool:
        """Durably store one artifact; False when the write failed.

        Then evict least-recently-used entries beyond the byte budget.
        """
        with self._lock:
            if not save_stdout(self._store(key), stdout):
                return False
            self._touch(key)
            self._stats.puts += 1
            self._evict(keep=key)
        return True

    def _count(self, key: str, store_stats: CheckpointStats) -> None:
        self._stats.hits += store_stats.hits
        self._stats.misses += store_stats.misses
        self._stats.corruptions += store_stats.corruptions
        self._stats.corrupt_reasons.extend(
            f"{key}: {reason}" for reason in store_stats.corrupt_reasons
        )

    def _touch(self, key: str) -> None:
        path = self._store(key).path_for(0)
        try:
            os.utime(path)
            size = path.stat().st_size
        except OSError:
            return
        self._recency.pop(key, None)
        self._recency[key] = size

    def _evict(self, keep: str) -> None:
        """Drop LRU entries until the budget fits (never ``keep``)."""
        if self._budget is None:
            return
        total = sum(self._recency.values())
        for key in list(self._recency):
            if total <= self._budget:
                break
            if key == keep:
                continue
            total -= self._recency.pop(key)
            store = self._store(key)
            try:
                store.path_for(0).unlink()
                store.directory.rmdir()  # kept while it holds *.corrupt
            except OSError:
                pass
            self._stats.evictions += 1
        fsync_dir(self._root)
