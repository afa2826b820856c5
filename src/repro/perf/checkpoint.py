"""Content-addressed, crash-consistent campaign checkpoints.

A long sweep is a list of independent chunks; losing an hour of Monte
Carlo to a SIGKILL at minute 59 is an infrastructure failure the paper's
own thesis forbids.  :class:`CheckpointStore` makes chunk completion
durable:

* **Content-addressed.**  A store is keyed by the *run key* -- the
  canonical configuration hash (:func:`repro.obs.provenance.config_hash`)
  of everything that determines the run's results, including the chunk
  partitioning.  Two runs with equal configuration share checkpoints;
  any configuration change lands in a fresh directory, so a stale record
  can never be replayed into the wrong run.
* **Crash-consistent.**  Records are written via
  :func:`repro.ioutil.atomic_write_json` (temp + fsync + rename +
  directory fsync), so a record either exists completely or not at all.
* **Self-verifying.**  Every record embeds the schema version, the run
  key, its chunk index, a payload kind tag, and the SHA-256 of the
  canonical payload JSON.  :meth:`CheckpointStore.load` re-derives the
  digest and cross-checks every field; any mismatch -- truncation, a
  flipped bit, a stale schema, a foreign configuration -- quarantines
  the file (renamed ``*.corrupt``) and reports a miss, so corruption is
  always detected and transparently re-computed, never trusted.

Recovery state machine per chunk::

    absent ──────────────► MISS  (compute, then save)
    valid record ────────► HIT   (decode, skip compute)
    invalid record ──────► CORRUPT (quarantine, then as MISS)

Disk-full degrades gracefully: a failed save is counted and the run
continues without durability for that chunk -- results are never
perturbed by checkpointing trouble.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.ioutil import atomic_write_json, fsync_dir
from repro.obs import get_observer

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_SCHEMA_VERSION",
    "CHAOS_DISK_FULL_ENV",
    "CheckpointStats",
    "CheckpointStore",
    "payload_digest",
    "scan_run_states",
]

#: Schema identifier stamped into every checkpoint record.
CHECKPOINT_SCHEMA = "repro.checkpoint"

#: Bumped on any backwards-incompatible record shape change; older
#: records are quarantined and re-computed rather than misread.
CHECKPOINT_SCHEMA_VERSION = 1

#: Chaos hook (test/harness only): once this many records have been
#: written, every further save raises ``ENOSPC`` -- a simulated full
#: disk.  Set by ``nanobox-repro chaos-exec --modes disk-full``.
CHAOS_DISK_FULL_ENV = "REPRO_CHAOS_DISK_FULL_AFTER"


def payload_digest(payload: Any) -> str:
    """SHA-256 of the canonical JSON encoding of a chunk payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CheckpointStats:
    """Accounting for one store's lifetime.

    Attributes:
        hits: chunks served from a valid on-disk record.
        misses: chunks with no record (computed fresh).
        corruptions: invalid records detected, quarantined, re-computed.
        writes: records durably written.
        write_errors: failed save attempts (e.g. disk full) the run
            survived without durability.
    """

    hits: int = 0
    misses: int = 0
    corruptions: int = 0
    writes: int = 0
    write_errors: int = 0
    corrupt_reasons: List[str] = field(default_factory=list)


class CheckpointStore:
    """One run's durable chunk records under ``root/<run_key>/``.

    Args:
        root: checkpoint directory shared by many runs.
        run_key: canonical config hash naming this run's sub-directory
            (see :func:`repro.obs.provenance.config_hash`).
        kind: payload kind tag recorded and verified per record, so a
            sweep checkpoint can never be decoded as, say, a lifecycle
            point list.
    """

    def __init__(
        self, root: Union[str, Path], run_key: str, kind: str = "chunk"
    ) -> None:
        if not run_key:
            raise ValueError("run_key must be non-empty")
        self._root = Path(root)
        self._run_key = run_key
        self._kind = kind
        self._dir = self._root / run_key
        self._stats = CheckpointStats()
        self._disk_full = False

    @property
    def run_key(self) -> str:
        return self._run_key

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def stats(self) -> CheckpointStats:
        return self._stats

    def path_for(self, index: int) -> Path:
        """The record path for one chunk index."""
        if index < 0:
            raise ValueError(f"chunk index must be >= 0, got {index}")
        return self._dir / f"chunk_{index:06d}.json"

    def completed_indices(self) -> List[int]:
        """Chunk indices with a record on disk (validity not yet checked)."""
        if not self._dir.is_dir():
            return []
        indices: List[int] = []
        for path in self._dir.glob("chunk_*.json"):
            stem = path.stem[len("chunk_"):]
            if stem.isdigit():
                indices.append(int(stem))
        return sorted(indices)

    def write_state(self, state: Mapping[str, Any]) -> None:
        """Persist an informational ``state.json`` next to the records.

        Best-effort (shares the disk-full degradation with saves): the
        state document is for humans and resume reporting, never needed
        for correctness.
        """
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            document = dict(state)
            document.setdefault("schema", f"{CHECKPOINT_SCHEMA}.state")
            document.setdefault("schema_version", CHECKPOINT_SCHEMA_VERSION)
            document.setdefault("run_key", self._run_key)
            atomic_write_json(self._dir / "state.json", document)
        except OSError:
            pass

    def save(self, index: int, payload: Any) -> bool:
        """Durably record one completed chunk; False when degraded.

        Raises nothing for I/O trouble: a full disk (real, or injected
        via :data:`CHAOS_DISK_FULL_ENV`) is counted in
        ``stats.write_errors`` and the caller simply continues without
        durability for this chunk.  Unserialisable payloads are a
        programming error and do raise.
        """
        obs = get_observer()
        record = {
            "schema": CHECKPOINT_SCHEMA,
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "run_key": self._run_key,
            "chunk_index": index,
            "kind": self._kind,
            "payload_sha256": payload_digest(payload),
            "payload": payload,
        }
        try:
            self._maybe_inject_disk_full()
            self._dir.mkdir(parents=True, exist_ok=True)
            atomic_write_json(self.path_for(index), record)
        except (TypeError, ValueError):
            raise  # unserialisable payload: a bug, not an I/O condition
        except OSError as exc:
            self._stats.write_errors += 1
            self._disk_full = getattr(exc, "errno", None) == errno.ENOSPC
            obs.metrics.counter("checkpoint.write_errors").inc()
            if obs.enabled:
                obs.trace.emit(
                    "checkpoint_write_failed",
                    source="checkpoint",
                    chunk=index,
                    error=repr(exc),
                )
            return False
        self._stats.writes += 1
        obs.metrics.counter("checkpoint.writes").inc()
        if obs.enabled:
            obs.trace.emit(
                "checkpoint_saved", source="checkpoint", chunk=index
            )
        return True

    def load(
        self, index: int, count: Optional[int] = None
    ) -> Tuple[Optional[Any], bool]:
        """Fetch one chunk payload: ``(payload, hit)``.

        Returns ``(None, False)`` on a miss.  A present-but-invalid
        record -- truncated JSON, flipped payload bits, stale schema
        version, foreign run key, wrong index or kind, or, when
        ``count`` is given, a payload that is not a list of ``count``
        items -- is quarantined (renamed ``*.corrupt``) and reported as
        a miss so the caller re-computes; the quarantined file is kept
        for post-mortems.
        """
        obs = get_observer()
        path = self.path_for(index)
        try:
            raw = path.read_text()
        except FileNotFoundError:
            self._stats.misses += 1
            obs.metrics.counter("checkpoint.misses").inc()
            return None, False
        except OSError as exc:
            self._quarantine(path, index, f"unreadable: {exc!r}", obs)
            return None, False
        reason = self._validate(raw, index, count)
        if reason is not None:
            self._quarantine(path, index, reason, obs)
            return None, False
        payload = json.loads(raw)["payload"]
        self._stats.hits += 1
        obs.metrics.counter("checkpoint.hits").inc()
        if obs.enabled:
            obs.trace.emit(
                "checkpoint_hit", source="checkpoint", chunk=index
            )
        return payload, True

    def _validate(
        self, raw: str, index: int, count: Optional[int]
    ) -> Optional[str]:
        """The reason a record is invalid, or ``None`` when it is good."""
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            return f"undecodable (truncated?): {exc.msg}"
        if not isinstance(record, dict):
            return "not a record object"
        if record.get("schema") != CHECKPOINT_SCHEMA:
            return f"foreign schema {record.get('schema')!r}"
        if record.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
            return (
                f"stale schema version {record.get('schema_version')!r} "
                f"(expected {CHECKPOINT_SCHEMA_VERSION})"
            )
        if record.get("run_key") != self._run_key:
            return (
                f"config hash mismatch: record {record.get('run_key')!r} "
                f"vs run {self._run_key!r}"
            )
        if record.get("chunk_index") != index:
            return (
                f"chunk index mismatch: record {record.get('chunk_index')!r} "
                f"vs expected {index}"
            )
        if record.get("kind") != self._kind:
            return (
                f"payload kind mismatch: record {record.get('kind')!r} "
                f"vs expected {self._kind!r}"
            )
        if "payload" not in record:
            return "missing payload"
        payload = record["payload"]
        if record.get("payload_sha256") != payload_digest(payload):
            return "payload integrity failure (bit flip?)"
        if count is not None and (
            not isinstance(payload, list) or len(payload) != count
        ):
            return f"result count mismatch: expected a list of {count}"
        return None

    def _quarantine(self, path: Path, index: int, reason: str, obs) -> None:
        """Move an invalid record aside and account for it as corrupt."""
        target = path.with_suffix(path.suffix + ".corrupt")
        serial = 0
        while target.exists():
            serial += 1
            target = path.with_suffix(path.suffix + f".corrupt{serial}")
        try:
            os.replace(str(path), str(target))
            fsync_dir(path.parent)
        except OSError:  # pragma: no cover - racing deletion
            pass
        self._stats.corruptions += 1
        self._stats.misses += 1
        self._stats.corrupt_reasons.append(f"chunk {index}: {reason}")
        obs.metrics.counter("checkpoint.corruptions").inc()
        obs.metrics.counter("checkpoint.misses").inc()
        if obs.enabled:
            obs.trace.emit(
                "checkpoint_corrupt",
                source="checkpoint",
                chunk=index,
                reason=reason,
                quarantined=target.name,
            )

    def _maybe_inject_disk_full(self) -> None:
        """Honour the chaos harness's simulated-disk-full knob."""
        limit = os.environ.get(CHAOS_DISK_FULL_ENV)
        if limit is not None and self._stats.writes >= int(limit):
            raise OSError(errno.ENOSPC, "injected disk full (chaos)")


def scan_run_states(root: Union[str, Path]) -> List[Dict[str, Any]]:
    """Live progress summaries, one per run directory under ``root``.

    Each summary combines the run's informational ``state.json`` (when
    present and readable) with ground truth counted from disk: chunk
    records present now (live progress while a writer is mid-run, since
    the final state document only lands at flush) and quarantined
    files.  Read-only and crash-tolerant -- a torn ``state.json`` or a
    mid-rename record never raises, it just degrades the summary.
    """
    base = Path(root)
    if not base.is_dir():
        return []
    summaries: List[Dict[str, Any]] = []
    for run_dir in sorted(p for p in base.iterdir() if p.is_dir()):
        chunk_records = len(list(run_dir.glob("chunk_*.json")))
        corrupt = len(
            [p for p in run_dir.iterdir() if ".corrupt" in p.name]
        )
        summary: Dict[str, Any] = {
            "run_key": run_dir.name,
            "completed_chunks": chunk_records,
            "total_chunks": None,
            "status": None,
            "corrupt_files": corrupt,
        }
        try:
            state = json.loads((run_dir / "state.json").read_text())
        except (OSError, json.JSONDecodeError):
            state = None
        if isinstance(state, dict):
            summary["status"] = state.get("status")
            total = state.get("total_chunks")
            if isinstance(total, int):
                summary["total_chunks"] = total
            done = state.get("completed_chunks")
            if isinstance(done, int):
                summary["completed_chunks"] = max(chunk_records, done)
        summaries.append(summary)
    return summaries
