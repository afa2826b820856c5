"""Resilient chunked execution: checkpoints, deadlines, dead letters.

:class:`~repro.perf.executor.CampaignExecutor` already survives a worker
dying; this layer makes whole *runs* survive the process itself dying.
It decomposes a run into ordered chunks of pure tasks and drives each
chunk through a recovery state machine::

        ┌──────────── deadline exceeded ──► SKIPPED (partial result)
        ▼
    chunk i ── checkpoint hit ───────────► REUSED  (no compute)
        │
        └─ miss/corrupt ─► RUN ─ ok ─────► DONE    (checkpointed)
                            │
                            └ raises ────► DEAD-LETTERED (recorded, the
                                                          run moves on)

A chunk runs once.  Its tasks are pure, so a chunk that raises would
raise again; the one failure that can heal -- a pool worker dying or
hanging -- is retried inside the executor, which sees the process and
rebuilds its pool.  By the time a chunk raises here that budget is
spent.

Guarantees:

* **Byte-identical resume.**  Tasks are pure functions of their specs
  (the same property the parallel executor relies on), chunk payloads
  round-trip losslessly through JSON, and the run key covers the chunk
  partitioning -- so a run interrupted at *any* chunk boundary and
  resumed produces exactly the results of an uninterrupted run.
* **Honest partial results.**  A ``--deadline`` that expires, or a
  chunk that fails, never aborts the run: the outcome reports exactly
  which chunks completed, which were dead-lettered and why, and
  whether the deadline was hit, so callers emit a well-formed partial
  report with explicit ``incomplete`` provenance.

Ctrl-C is honoured everywhere: completed chunks are already durable, a
final ``state.json`` flush records progress, and the interrupt
re-raises so the shell sees a real SIGINT death.
"""

from __future__ import annotations

import functools
import os
import signal
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.faults.campaign import CampaignResult, TrialResult
from repro.obs import get_observer
from repro.perf.checkpoint import CheckpointStore, run_key_for
from repro.perf.executor import (
    CampaignExecutor,
    CampaignWorkItem,
    run_campaign_items,
)

__all__ = [
    "CHAOS_KILL_ENV",
    "DeadLetter",
    "ResilientOutcome",
    "ResilientRunner",
    "ResilientRuntime",
    "TaskPlan",
    "decode_campaign_result",
    "encode_campaign_result",
    "resilience_note",
    "resilient_campaign_map",
]

#: Chaos hook (test/harness only): SIGKILL our own process immediately
#: after the checkpoint for this chunk index is durably written -- a
#: deterministic stand-in for an OOM kill or power loss at a chunk
#: boundary.  Set by ``nanobox-repro chaos-exec --modes kill``.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_AFTER_CHUNK"


@dataclass(frozen=True)
class ResilientRuntime:
    """Operator-facing knobs for one resilient run (all optional).

    Attributes:
        checkpoint_dir: directory for durable chunk records; ``None``
            disables checkpointing entirely.
        resume: reuse valid existing records (otherwise the run
            recomputes everything and overwrites).
        deadline: wall-clock budget in seconds; on expiry the run stops
            scheduling chunks and reports an explicit partial outcome.
        chunk_size: tasks per checkpointed chunk.
        chunk_timeout: per-chunk timeout handed to the campaign
            executor's hung-worker recovery (parallel runs only).
    """

    checkpoint_dir: Optional[Path] = None
    resume: bool = False
    deadline: Optional[float] = None
    chunk_size: int = 4
    chunk_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires a checkpoint_dir")


@dataclass(frozen=True)
class DeadLetter:
    """One chunk whose computation raised: its slots stay empty."""

    chunk: int
    error: str


@dataclass
class ResilientOutcome:
    """Everything one resilient run produced and how it got there."""

    results: List[Optional[Any]]
    chunks: int = 0
    chunk_size: int = 1
    reused_chunks: int = 0
    computed_chunks: int = 0
    skipped_chunks: int = 0
    deadline_hit: bool = False
    dead_letters: Tuple[DeadLetter, ...] = ()
    run_key: Optional[str] = None
    checkpoint_stats: Optional[Any] = None  # CheckpointStats when stored

    @property
    def complete(self) -> bool:
        """True when every task produced a result."""
        return all(result is not None for result in self.results)

    @property
    def missing_tasks(self) -> List[int]:
        """Indices of tasks with no result (deadline or dead-letter)."""
        return [i for i, r in enumerate(self.results) if r is None]


def _same(value: Any) -> Any:
    return value


class ResilientRunner:
    """Drives ordered task chunks through the recovery state machine.

    Args:
        run_chunk: ``(chunk_index, tasks) -> results`` for one chunk;
            must be a pure function of the tasks (the resume guarantee
            depends on it).
        runtime: the operator knobs (see :class:`ResilientRuntime`).
        config: JSON-safe mapping of everything that determines the
            run's results (seeds, specs, sweep axes ...).  Combined
            with the chunk partitioning it forms the store's run key.
        kind: payload kind tag for the checkpoint records.
        encode/decode: lossless JSON codec for one task result.
        clock: injectable monotonic clock (tests).
    """

    def __init__(
        self,
        run_chunk: Callable[[int, Sequence[Any]], List[Any]],
        *,
        runtime: ResilientRuntime,
        config: Dict[str, Any],
        kind: str = "chunk",
        encode: Callable[[Any], Any] = _same,
        decode: Callable[[Any], Any] = _same,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._run_chunk = run_chunk
        self._runtime = runtime
        self._encode = encode
        self._decode = decode
        self._clock = clock
        self._config = {
            "run": dict(config),
            "checkpoint": {
                "kind": kind,
                "chunk_size": runtime.chunk_size,
                "schema_version": 1,
            },
        }
        self._run_key = run_key_for(self._config)
        self._store: Optional[CheckpointStore] = None
        if runtime.checkpoint_dir is not None:
            self._store = CheckpointStore(
                runtime.checkpoint_dir, self._run_key, kind=kind
            )

    @property
    def run_key(self) -> str:
        return self._run_key

    @property
    def store(self) -> Optional[CheckpointStore]:
        return self._store

    def run(self, tasks: Sequence[Any]) -> ResilientOutcome:
        """Execute every task chunk; never raises for chunk failures.

        ``KeyboardInterrupt`` is the exception: progress is flushed and
        the interrupt re-raised so Ctrl-C still kills the run.
        """
        tasks = list(tasks)
        size = self._runtime.chunk_size
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        outcome = ResilientOutcome(
            results=[None] * len(tasks),
            chunks=len(chunks),
            chunk_size=size,
            run_key=self._run_key,
        )
        obs = get_observer()
        start = self._clock()
        if self._store is not None:
            self._store.write_state(
                {
                    "config": self._config,
                    "total_chunks": len(chunks),
                    "total_tasks": len(tasks),
                    "status": "running",
                }
            )
        dead: List[DeadLetter] = []
        try:
            for index, chunk in enumerate(chunks):
                if self._deadline_expired(start):
                    outcome.deadline_hit = True
                    outcome.skipped_chunks = len(chunks) - index
                    obs.metrics.counter("resilient.deadline_hits").inc()
                    if obs.enabled:
                        obs.trace.emit(
                            "deadline_exceeded",
                            source="resilient",
                            chunk=index,
                            completed=index,
                            total=len(chunks),
                        )
                    break
                if self._try_reuse(index, chunk, outcome, size):
                    continue
                error = self._compute_chunk(index, chunk, outcome, size)
                if error is None:
                    continue
                dead.append(error)
                obs.metrics.counter("resilient.dead_letters").inc()
                if obs.enabled:
                    obs.trace.emit(
                        "chunk_dead_letter",
                        source="resilient",
                        chunk=error.chunk,
                        error=error.error,
                    )
        except KeyboardInterrupt:
            self._flush_state(outcome, "interrupted")
            obs.metrics.counter("resilient.interrupts").inc()
            if obs.enabled:
                obs.trace.emit(
                    "run_interrupted",
                    source="resilient",
                    completed=outcome.reused_chunks + outcome.computed_chunks,
                    total=outcome.chunks,
                )
            raise
        outcome.dead_letters = tuple(dead)
        if self._store is not None:
            outcome.checkpoint_stats = self._store.stats
        self._flush_state(
            outcome, "complete" if outcome.complete else "partial"
        )
        obs.metrics.counter("resilient.runs").inc()
        obs.metrics.counter("resilient.chunks_reused").inc(
            outcome.reused_chunks
        )
        obs.metrics.counter("resilient.chunks_computed").inc(
            outcome.computed_chunks
        )
        return outcome

    # -- internals ----------------------------------------------------

    def _deadline_expired(self, start: float) -> bool:
        deadline = self._runtime.deadline
        return deadline is not None and self._clock() - start >= deadline

    def _try_reuse(
        self,
        index: int,
        chunk: Sequence[Any],
        outcome: ResilientOutcome,
        size: int,
    ) -> bool:
        """Serve one chunk from the store, if resuming and valid."""
        if self._store is None or not self._runtime.resume:
            return False
        payload, hit = self._store.load(index)
        if not hit:
            return False
        if not isinstance(payload, list) or len(payload) != len(chunk):
            # Shape drift is corruption by another name: quarantine-by-
            # recompute (the save below will overwrite the record).
            self._store.stats.corrupt_reasons.append(
                f"chunk {index}: payload arity {len(payload)!r} "
                f"!= {len(chunk)}"
            )
            return False
        for offset, item_payload in enumerate(payload):
            outcome.results[index * size + offset] = self._decode(item_payload)
        outcome.reused_chunks += 1
        return True

    def _compute_chunk(
        self,
        index: int,
        chunk: Sequence[Any],
        outcome: ResilientOutcome,
        size: int,
    ) -> Optional[DeadLetter]:
        """Run one chunk once; a DeadLetter when it raised."""
        try:
            results = self._run_chunk(index, chunk)
        except Exception as exc:  # noqa: BLE001 - fault boundary
            return DeadLetter(chunk=index, error=repr(exc))
        if len(results) != len(chunk):
            raise RuntimeError(
                f"chunk runner returned {len(results)} results for "
                f"{len(chunk)} tasks (chunk {index})"
            )
        for offset, result in enumerate(results):
            outcome.results[index * size + offset] = result
        outcome.computed_chunks += 1
        if self._store is not None:
            self._store.save(
                index, [self._encode(result) for result in results]
            )
            self._maybe_chaos_kill(index)
        return None

    def _flush_state(self, outcome: ResilientOutcome, status: str) -> None:
        if self._store is None:
            return
        self._store.write_state(
            {
                "config": self._config,
                "total_chunks": outcome.chunks,
                "completed_chunks": (
                    outcome.reused_chunks + outcome.computed_chunks
                ),
                "dead_letters": [
                    {"chunk": letter.chunk, "error": letter.error}
                    for letter in outcome.dead_letters
                ],
                "status": status,
            }
        )

    @staticmethod
    def _maybe_chaos_kill(index: int) -> None:
        """Honour the chaos harness's kill-after-chunk knob."""
        target = os.environ.get(CHAOS_KILL_ENV)
        if target is not None and index == int(target):
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover


@dataclass(frozen=True)
class TaskPlan:
    """An ordered list of pure tasks, the function that computes a chunk
    of them, and the configuration that keys their checkpoints.

    ``chunk_size`` fixes the chunking whatever the runtime asks for (a
    one-task plan checkpoints as one chunk).
    """

    tasks: Sequence[Any]
    run_chunk: Callable[[int, Sequence[Any]], List[Any]]
    config: Dict[str, Any]
    kind: str
    encode: Callable[[Any], Any] = _same
    decode: Callable[[Any], Any] = _same
    chunk_size: Optional[int] = None

    def run(
        self, runtime: Optional[ResilientRuntime] = None
    ) -> ResilientOutcome:
        """Compute every task.

        Without a ``runtime`` the whole list runs once, inline: no run
        key, store, chunking, dead letters or ``resilient.*`` counters,
        and errors propagate.  With one it runs through a
        :class:`ResilientRunner`.
        """
        if runtime is None:
            return ResilientOutcome(list(self.run_chunk(0, self.tasks)))
        if self.chunk_size is not None:
            runtime = replace(runtime, chunk_size=self.chunk_size)
        runner = ResilientRunner(
            self.run_chunk,
            runtime=runtime,
            config=self.config,
            kind=self.kind,
            encode=self.encode,
            decode=self.decode,
        )
        return runner.run(self.tasks)


# -- campaign glue ----------------------------------------------------


def encode_campaign_result(result: CampaignResult) -> Dict[str, Any]:
    """Lossless JSON form of one :class:`CampaignResult`."""
    return {
        "trials": [
            {
                "total": trial.total,
                "correct": trial.correct,
                "injected_faults": trial.injected_faults,
            }
            for trial in result.trials
        ]
    }


def decode_campaign_result(payload: Dict[str, Any]) -> CampaignResult:
    """Inverse of :func:`encode_campaign_result` (exact round-trip)."""
    return CampaignResult(
        trials=tuple(
            TrialResult(
                total=int(trial["total"]),
                correct=int(trial["correct"]),
                injected_faults=int(trial["injected_faults"]),
            )
            for trial in payload["trials"]
        )
    )


def resilient_campaign_map(
    items: Sequence[CampaignWorkItem],
    *,
    jobs: int = 1,
    runtime: Optional[ResilientRuntime],
    config: Dict[str, Any],
) -> ResilientOutcome:
    """Run campaign work items, checkpointed when ``runtime`` is given.

    Without a runtime this is one :func:`~repro.perf.executor.
    run_campaign_items` call.  With one, each chunk runs on a
    :class:`CampaignExecutor` (serial for ``jobs=1``, process pool
    otherwise, with its own worker-death recovery inside each chunk;
    a chunk whose workers die past that budget is dead-lettered), so a
    fully completed run yields identical results --
    checkpointing and recovery never perturb the numbers.
    """
    execute: Callable[[Sequence[CampaignWorkItem]], List[CampaignResult]]
    if runtime is None:
        execute = functools.partial(run_campaign_items, jobs=jobs)
    else:
        execute = CampaignExecutor(
            jobs=jobs, chunk_timeout=runtime.chunk_timeout
        ).run
    plan = TaskPlan(
        items,
        lambda _index, chunk: execute(chunk),
        config,
        kind="campaign-results",
        encode=encode_campaign_result,
        decode=decode_campaign_result,
    )
    return plan.run(runtime)


def resilience_note(outcome: ResilientOutcome) -> str:
    """One stderr-ready line summarising a run's recovery activity."""
    parts = [
        f"checkpoint[{outcome.run_key}]: "
        f"reused {outcome.reused_chunks}/{outcome.chunks} chunk(s), "
        f"computed {outcome.computed_chunks}"
    ]
    stats = outcome.checkpoint_stats
    if stats is not None and stats.corruptions:
        parts.append(f"quarantined {stats.corruptions} corrupt record(s)")
    if stats is not None and stats.write_errors:
        parts.append(
            f"degraded: {stats.write_errors} checkpoint write(s) failed "
            f"(disk full?)"
        )
    if outcome.dead_letters:
        parts.append(f"{len(outcome.dead_letters)} dead-lettered chunk(s)")
    if outcome.deadline_hit:
        parts.append(f"deadline hit ({outcome.skipped_chunks} chunk(s) left)")
    return "; ".join(parts)
