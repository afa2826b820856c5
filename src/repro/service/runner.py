"""Supervised job execution: single-flight, restarts, breaker, drain.

:class:`JobManager` is the service's engine room, deliberately free of
any HTTP so the concurrency invariants are testable in-process:

* **Single-flight dedup.**  Submission checks the result cache, then an
  in-flight index keyed by the job's canonical cache key: N identical
  concurrent submissions yield one computation -- later ones attach to
  the running job, and once it completes they hit the cache.  K
  identical + M distinct submissions perform exactly M+1 computations
  under *any* interleaving (property-tested).
* **Worker supervision.**  Jobs execute through an injected executor
  (production: :class:`ChildCliExecutor`, a real ``nanobox-repro``
  child under the crash-safe runtime).  This is the one layer that
  re-runs a whole job, and it re-runs only a child that died by signal
  (an OOM kill, a segfault, or the job-timeout kill), up to
  ``max_attempts`` runs: its checkpoints make the re-run a cheap
  resume.  Any other failed exit is deterministic -- the same argv
  fails the same way -- so it fails the job on its first run.  A job
  class failing ``breaker_threshold`` consecutive times trips its
  :class:`CircuitBreaker`: further jobs of that class get a single
  fast-fail run until one succeeds.
* **Deadlines and cancellation.**  A per-job deadline rides into the
  child as ``--deadline`` and reuses the resilient runner's machinery
  wholesale: expiry yields the explicit partial report (exit 3), which
  the service surfaces as a ``partial`` job whose artifact is served
  but *never cached*.  Cancelling a running job interrupts the child
  (SIGINT -> checkpoint flush) exactly like Ctrl-C.
* **Graceful drain.**  :meth:`JobManager.drain` stops workers taking
  new work, gives running jobs a grace period, then interrupts them and
  requeues -- every non-terminal job is journaled, so a restarted
  manager (same state directory) re-enqueues them and their checkpoints
  turn the re-run into a resume with byte-identical output.

Every state transition is journaled to ``<state_dir>/jobs/<id>.json``
via atomic writes; the journal plus the checkpoint store is the entire
recovery story after ``kill -9``.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.cli import EXIT_INCOMPLETE
from repro.ioutil import atomic_write_bytes, atomic_write_json, atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.perf.checkpoint import scan_run_states
from repro.service.admission import AdmissionQueue
from repro.service.cache import ResultCache
from repro.service.jobs import JobRecord, JobSpec, JobState

__all__ = [
    "ChildCliExecutor",
    "JobManager",
    "JobOutput",
    "SubmitResult",
    "child_env",
]

_STDERR_TAIL = 2000


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """A clean child environment: no inherited chaos knobs, repro on path."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_CHAOS_")
    }
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    if extra:
        env.update(extra)
    return env


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker with a half-open fast fail.

    ``threshold`` consecutive failures open it; while open, each job
    gets one fast-fail run instead of its budget, and the first success
    closes it.  The job manager keeps one per job kind.
    """

    threshold: int
    failures: int = 0
    is_open: bool = False

    def attempts(self, budget: int) -> int:
        """Runs the next job gets: ``budget``, or 1 if open."""
        return 1 if self.is_open else budget

    def record_success(self) -> None:
        self.failures = 0
        self.is_open = False

    def record_failure(self) -> bool:
        """Count one failure; True when this failure tripped the breaker."""
        self.failures += 1
        if self.is_open or self.failures < self.threshold:
            return False
        self.is_open = True
        return True


@dataclass(frozen=True)
class JobOutput:
    """One execution attempt's observable outcome.

    ``exit_status`` follows ``subprocess`` conventions: negative means
    killed by that signal number (worker death), ``EXIT_INCOMPLETE``
    means an explicit partial report, zero a complete artifact.
    """

    stdout: bytes
    stderr: str = ""
    exit_status: int = 0


@dataclass(frozen=True)
class SubmitResult:
    """What one submission got: a job, a cached artifact, or shed."""

    status: str  # queued | cached | deduplicated | rejected-overload
    #              | rejected-draining
    record: Optional[JobRecord] = None
    retry_after: Optional[int] = None

    @property
    def accepted(self) -> bool:
        return self.record is not None


class ChildCliExecutor:
    """Runs one job as a real ``nanobox-repro`` child process.

    The child always gets ``--checkpoint-dir <root>/<cache_key>
    --resume``: a first attempt finds no records and computes, any
    re-run or restart resumes from whatever chunks survived, and stdout
    is byte-identical either way.  The child's pid is
    journaled to ``<job_dir>/child.pid`` so a supervisor -- or the
    chaos harness simulating power loss -- can find it.
    """

    def __init__(
        self,
        chunk_size: int = 4,
        job_timeout: float = 900.0,
        chunk_timeout: Optional[float] = None,
    ) -> None:
        self._chunk_size = chunk_size
        self._job_timeout = job_timeout
        self._chunk_timeout = chunk_timeout
        self._children: Dict[str, subprocess.Popen] = {}
        self._lock = threading.Lock()

    def _argv(self, record: JobRecord, checkpoint_dir: Path) -> List[str]:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            *record.spec.to_argv(),
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--resume",
            "--checkpoint-chunk-size",
            str(self._chunk_size),
        ]
        if self._chunk_timeout is not None:
            argv.extend(("--chunk-timeout", str(self._chunk_timeout)))
        if record.deadline is not None:
            argv.extend(("--deadline", str(record.deadline)))
        return argv

    def run(
        self, record: JobRecord, job_dir: Path, checkpoint_dir: Path
    ) -> JobOutput:
        job_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.Popen(
            self._argv(record, checkpoint_dir),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        with self._lock:
            self._children[record.id] = proc
        try:
            atomic_write_text(job_dir / "child.pid", f"{proc.pid}\n")
        except OSError:
            pass
        try:
            stdout, stderr = proc.communicate(timeout=self._job_timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            stderr = (stderr or b"") + (
                f"\nservice: child exceeded job timeout "
                f"{self._job_timeout}s and was killed\n".encode()
            )
        finally:
            with self._lock:
                self._children.pop(record.id, None)
        return JobOutput(
            stdout=stdout or b"",
            stderr=(stderr or b"").decode("utf-8", "replace"),
            exit_status=proc.returncode,
        )

    def interrupt(self, job_id: str) -> bool:
        """SIGINT a running child (checkpoint-flushing cancellation)."""
        with self._lock:
            proc = self._children.get(job_id)
        if proc is None or proc.poll() is not None:
            return False
        try:
            proc.send_signal(signal.SIGINT)
        except OSError:
            return False
        return True

    def living_children(self) -> List[int]:
        """Pids of children still running (drain's no-orphan check)."""
        with self._lock:
            return [
                proc.pid
                for proc in self._children.values()
                if proc.poll() is None
            ]


class JobManager:
    """The HTTP-free service core: admission -> supervision -> cache.

    Args:
        state_dir: root for the journal (``jobs/``), result cache
            (``cache/``) and checkpoint store (``checkpoints/``); one
            directory is one service identity across restarts.
        execute: executor with ``run(record, job_dir, checkpoint_dir)``
            and optionally ``interrupt(job_id)`` /
            ``living_children()``; default is a :class:`ChildCliExecutor`.
        workers: supervised worker thread count.
        queue_capacity: bounded admission depth (beyond it: shed).
        cache_budget: result-cache byte budget (None: unbounded).
        max_attempts: runs per job while its child keeps dying by
            signal; any other failed exit fails the job at once.
        breaker_threshold: consecutive same-kind failures that trip the
            class circuit breaker.
        metrics: the service :class:`MetricsRegistry` (owns one by
            default); all ``service.*`` instruments land here.
        clock: injectable monotonic clock (tests).
    """

    def __init__(
        self,
        state_dir: Union[str, Path],
        *,
        execute=None,
        workers: int = 2,
        queue_capacity: int = 16,
        cache_budget: Optional[int] = None,
        max_attempts: int = 3,
        breaker_threshold: int = 3,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
        poll_interval: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self._state_dir = Path(state_dir)
        self._jobs_dir = self._state_dir / "jobs"
        self._checkpoint_root = self._state_dir / "checkpoints"
        self._execute = (
            execute if execute is not None else ChildCliExecutor()
        )
        self._workers_n = workers
        self._max_attempts = max_attempts
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._wall_clock = wall_clock
        self._poll = poll_interval
        self.cache = ResultCache(
            self._state_dir / "cache", byte_budget=cache_budget
        )
        self.queue = AdmissionQueue(queue_capacity, workers=workers)
        self._lock = threading.Lock()
        self._records: Dict[str, JobRecord] = {}
        self._inflight: Dict[str, str] = {}  # cache_key -> job id
        self._job_metrics: Dict[str, MetricsRegistry] = {}
        self._running: Dict[str, float] = {}  # job id -> start (monotonic)
        self._cancel_requested: set = set()
        self._breakers = defaultdict(lambda: CircuitBreaker(breaker_threshold))
        self._seq = 0
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = False
        self._recover()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spin up the supervised worker threads."""
        for index in range(self._workers_n):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, grace: float = 30.0) -> Dict[str, int]:
        """Stop admitting, finish or checkpoint in-flight jobs, stop.

        Running jobs get ``grace`` seconds to complete; survivors are
        interrupted (their children flush checkpoints on SIGINT) and
        requeued, so a restarted manager resumes them.  Returns a
        summary: jobs finished during the grace window, jobs requeued,
        jobs left queued for the next incarnation.
        """
        self._draining = True
        queued_left = self.queue.drain()
        self.metrics.counter("service.drains").inc()
        deadline = self._clock() + max(0.0, grace)
        while self._running_ids() and self._clock() < deadline:
            time.sleep(self._poll)
        interrupted = list(self._running_ids())
        for job_id in interrupted:
            self._interrupt_child(job_id)
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=60.0)
        self._threads = []
        leftover = self._execute_living_children()
        for pid in leftover:  # pragma: no cover - defensive
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        with self._lock:
            requeued = sum(
                1
                for record in self._records.values()
                if record.state == JobState.QUEUED and record.requeues
            )
        return {
            "queued_left": queued_left,
            "interrupted": len(interrupted),
            "requeued": requeued,
            "orphans_killed": len(leftover),
        }

    def _running_ids(self) -> List[str]:
        with self._lock:
            return list(self._running)

    def _interrupt_child(self, job_id: str) -> None:
        interrupt = getattr(self._execute, "interrupt", None)
        if interrupt is not None:
            interrupt(job_id)

    def _execute_living_children(self) -> List[int]:
        living = getattr(self._execute, "living_children", None)
        return list(living()) if living is not None else []

    # -- recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Reload the journal; requeue every non-terminal job in order."""
        if not self._jobs_dir.is_dir():
            return
        recovered: List[JobRecord] = []
        for path in sorted(self._jobs_dir.glob("*.json")):
            # An entry's id is never reused, even when the entry does not
            # load (say, it is torn): a new job would overwrite it.
            if path.stem.startswith("j") and path.stem[1:].isdigit():
                self._seq = max(self._seq, int(path.stem[1:]))
            try:
                import json

                document = json.loads(path.read_text())
                try:
                    record = JobRecord.from_json(document)
                except ValueError as exc:
                    record = self._retire_invalid_spec(document, exc)
            except (
                OSError, ValueError, KeyError, TypeError, AttributeError
            ) as exc:
                # An unreadable journal entry is not a job.
                self.metrics.counter("service.journal_skipped").inc()
                print(
                    f"service: skipped journal entry {path.name}: {exc}",
                    file=sys.stderr,
                )
                continue
            self._records[record.id] = record
            recovered.append(record)
        resumable = [
            record
            for record in recovered
            if record.state in JobState.RESUMABLE
        ]
        for record in resumable:
            record.state = JobState.QUEUED
            record.outcome = "resumed"
            record.requeues += 1
            self._journal(record)
            self._inflight[record.cache_key] = record.id
            self.metrics.counter("service.jobs_recovered").inc()
        # requeue() stacks at the front, so walk newest-first to leave
        # the queue in original submission order.
        for record in sorted(resumable, key=lambda r: r.id, reverse=True):
            self.queue.requeue(record)

    def _retire_invalid_spec(
        self, document: Dict[str, Any], error: ValueError
    ) -> JobRecord:
        """A journaled job whose spec this version no longer admits (an
        older service accepted it before the parameter domains
        tightened).  It keeps its raw spec and, if it had not finished,
        becomes FAILED with the validation message, so a client polling
        it sees a terminal state instead of a 404; it never runs."""
        raw = document["spec"]
        spec = JobSpec(
            kind=str(raw["kind"]),
            params=tuple(sorted(dict(raw.get("params") or {}).items())),
        )
        record = JobRecord.from_json(document, spec=spec)
        print(
            f"service: journal entry {record.id} has a spec this version "
            f"rejects: {error}",
            file=sys.stderr,
        )
        if record.state in JobState.RESUMABLE:
            record.error = f"spec rejected on recovery: {error}"
            self._finish(record, JobState.FAILED)
        return record

    # -- submission ----------------------------------------------------

    def submit(
        self, spec: JobSpec, deadline: Optional[float] = None
    ) -> SubmitResult:
        """Admit one job: cache hit, single-flight attach, queue, or shed."""
        key = spec.cache_key
        with self._lock:
            cached = self.cache.get(key)
            if cached is not None:
                record = self._new_record(spec, deadline=None)
                record.state = JobState.DONE
                record.outcome = "cached"
                record.result_bytes = len(cached)
                record.result_sha256 = hashlib.sha256(cached).hexdigest()
                record.finished_at = self._wall_clock()
                self._records[record.id] = record
                self._journal(record)
                self.metrics.counter("service.jobs_cached").inc()
                self._sync_cache_counters()
                return SubmitResult(status="cached", record=record)
            inflight_id = self._inflight.get(key)
            if inflight_id is not None:
                existing = self._records.get(inflight_id)
                if existing is not None and existing.state not in (
                    JobState.TERMINAL
                ):
                    self.metrics.counter("service.jobs_deduplicated").inc()
                    return SubmitResult(
                        status="deduplicated", record=existing
                    )
            record = self._new_record(spec, deadline=deadline)
            decision = self.queue.offer(record)
            if not decision.accepted:
                self.metrics.counter(
                    f"service.admission_shed_{decision.reason}"
                ).inc()
                self._seq -= 1  # id never materialised
                return SubmitResult(
                    status=f"rejected-{decision.reason}",
                    retry_after=decision.retry_after,
                )
            self._records[record.id] = record
            self._inflight[key] = record.id
            self._journal(record)
            self.metrics.counter("service.jobs_submitted").inc()
            return SubmitResult(status="queued", record=record)

    def _new_record(
        self, spec: JobSpec, deadline: Optional[float]
    ) -> JobRecord:
        self._seq += 1
        return JobRecord(
            id=f"j{self._seq:06d}",
            spec=spec,
            cache_key=spec.cache_key,
            deadline=deadline,
            submitted_at=self._wall_clock(),
        )

    # -- queries -------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def records(self) -> List[JobRecord]:
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.id)

    def job_dir(self, job_id: str) -> Path:
        return self._jobs_dir / job_id

    def checkpoint_dir(self, cache_key: str) -> Path:
        return self._checkpoint_root / cache_key

    def progress(self, record: JobRecord) -> Dict[str, Any]:
        """Chunk-level progress from the job's checkpoint run states."""
        states = scan_run_states(self.checkpoint_dir(record.cache_key))
        completed = sum(int(s.get("completed_chunks") or 0) for s in states)
        total = sum(int(s.get("total_chunks") or 0) for s in states)
        return {
            "completed_chunks": completed,
            "total_chunks": total,
            "runs": len(states),
        }

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The status document: record + progress + metrics snapshot."""
        record = self.get(job_id)
        if record is None:
            return None
        progress = self.progress(record)
        registry = self._job_registry(job_id)
        registry.gauge("service.job.attempts").set(record.attempts)
        registry.gauge("service.job.requeues").set(record.requeues)
        registry.gauge("service.job.completed_chunks").set(
            progress["completed_chunks"]
        )
        registry.gauge("service.job.total_chunks").set(
            progress["total_chunks"]
        )
        document = record.to_json()
        document["progress"] = progress
        document["metrics"] = registry.snapshot()
        return document

    def _job_registry(self, job_id: str) -> MetricsRegistry:
        with self._lock:
            return self._job_metrics.setdefault(job_id, MetricsRegistry())

    def result(self, job_id: str) -> Tuple[Optional[bytes], str]:
        """``(artifact, reason)``; artifact ``None`` when unavailable.

        Serves only verified bytes: done jobs come from the cache (which
        re-checks SHA-256 on read), partial jobs from the job-local
        artifact cross-checked against the journaled digest.
        """
        record = self.get(job_id)
        if record is None:
            return None, "not-found"
        if record.state in (JobState.QUEUED, JobState.RUNNING):
            return None, "not-ready"
        if record.state == JobState.DONE:
            payload = self.cache.get(record.cache_key)
            self._sync_cache_counters()
            if payload is None:
                return None, "evicted"
            return payload, "ok"
        if record.state == JobState.PARTIAL:
            path = self.job_dir(job_id) / "output.bin"
            try:
                payload = path.read_bytes()
            except OSError:
                return None, "evicted"
            if (
                record.result_sha256 is not None
                and hashlib.sha256(payload).hexdigest() != record.result_sha256
            ):
                return None, "corrupt"
            return payload, "partial"
        return None, record.state

    def service_snapshot(self) -> Dict[str, Any]:
        """The service registry snapshot (``/v1/metrics`` body)."""
        self._sync_cache_counters()
        self.metrics.gauge("service.queue_depth").set(self.queue.depth())
        self.metrics.gauge("service.cache_bytes").set(
            self.cache.total_bytes()
        )
        return self.metrics.snapshot()

    def _sync_cache_counters(self) -> None:
        stats = self.cache.stats
        for name, value in (
            ("service.cache_hits", stats.hits),
            ("service.cache_misses", stats.misses),
            ("service.cache_evictions", stats.evictions),
            ("service.cache_corruptions", stats.corruptions),
        ):
            counter = self.metrics.counter(name)
            if value > counter.value:
                counter.inc(value - counter.value)

    # -- cancellation --------------------------------------------------

    def cancel(self, job_id: str) -> Tuple[bool, str]:
        """Cancel a queued job outright or interrupt a running one."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return False, "not-found"
            if record.state in JobState.TERMINAL:
                return False, f"already {record.state}"
            if record.state == JobState.QUEUED:
                removed = self.queue.remove(lambda r: r.id == job_id)
                if removed:
                    self._finish(record, JobState.CANCELLED)
                    return True, "cancelled"
                # A worker picked it up between our check and the sweep.
            self._cancel_requested.add(job_id)
        self._interrupt_child(job_id)
        self.metrics.counter("service.cancel_requests").inc()
        return True, "cancelling"

    # -- the worker loop ----------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            if self._draining:
                return
            record = self.queue.take(timeout=self._poll)
            if record is None:
                continue
            try:
                self._run_job(record)
            except Exception as exc:  # noqa: BLE001 - supervisor boundary
                # The supervisor itself must never die on a job.
                with self._lock:
                    record.error = f"internal: {exc!r}"
                    self._finish(record, JobState.FAILED)

    def _run_job(self, record: JobRecord) -> None:
        with self._lock:
            if record.id in self._cancel_requested:
                self._finish(record, JobState.CANCELLED)
                return
            record.state = JobState.RUNNING
            record.started_at = self._wall_clock()
            self._running[record.id] = self._clock()
            self._journal(record)
            breaker = self._breakers[record.spec.kind]
            if breaker.is_open:
                self.metrics.counter("service.breaker_fast_fails").inc()
        try:
            self._attempt_loop(record, breaker.attempts(self._max_attempts))
        finally:
            with self._lock:
                self._running.pop(record.id, None)

    def _attempt_loop(self, record: JobRecord, runs_allowed: int) -> None:
        """Run the job until it settles.  ``runs_allowed`` counts runs in
        this call only, so drain interruptions journaled in
        ``record.attempts`` by earlier incarnations never use it up."""
        runs = 0
        while True:
            runs += 1
            record.attempts += 1
            started = self._clock()
            self.metrics.counter("service.executions").inc()
            with self.metrics.time("service.job_run"):
                output = self._execute.run(
                    record,
                    self.job_dir(record.id),
                    self.checkpoint_dir(record.cache_key),
                )
            self.queue.note_duration(self._clock() - started)
            record.exit_status = output.exit_status
            record.stderr_tail = output.stderr[-_STDERR_TAIL:]
            if self._settle_attempt(record, output):
                return
            if output.exit_status >= 0 or runs >= runs_allowed:
                break
            # The worker died under the job (OOM kill, segfault, job
            # timeout): run it again, and its checkpoints make it a resume.
            self.metrics.counter("service.worker_restarts").inc()
        # The job failed, and its class inches the breaker toward open.
        with self._lock:
            record.error = (
                f"failed after {runs} attempt(s); last exit "
                f"{output.exit_status}"
            )
            self._finish(record, JobState.FAILED)
            if self._breakers[record.spec.kind].record_failure():
                self.metrics.counter("service.breaker_trips").inc()

    def _settle_attempt(self, record: JobRecord, output: JobOutput) -> bool:
        """Interpret one attempt; True when the job reached a final state."""
        cancelled = record.id in self._cancel_requested
        if output.exit_status == 0:
            sha = self.cache.put(
                record.cache_key,
                output.stdout,
                kind=record.spec.kind,
                job_id=record.id,
            )
            with self._lock:
                record.result_bytes = len(output.stdout)
                record.result_sha256 = sha
                self._finish(record, JobState.DONE)
                self._breakers[record.spec.kind].record_success()
            self._sync_cache_counters()
            return True
        if output.exit_status == EXIT_INCOMPLETE:
            # The resilient runtime's explicit partial report: served,
            # never cached -- a later identical submission resumes from
            # the checkpoints and completes it.
            sha = hashlib.sha256(output.stdout).hexdigest()
            job_dir = self.job_dir(record.id)
            job_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(job_dir / "output.bin", output.stdout)
            with self._lock:
                record.result_bytes = len(output.stdout)
                record.result_sha256 = sha
                record.incomplete = True
                self._finish(record, JobState.PARTIAL)
                self._breakers[record.spec.kind].record_success()
            self.metrics.counter("service.jobs_partial").inc()
            return True
        if cancelled:
            with self._lock:
                record.error = "cancelled by request"
                self._finish(record, JobState.CANCELLED)
            return True
        if self._draining:
            # Interrupted for shutdown: the child flushed checkpoints;
            # requeue so the next incarnation resumes it.
            with self._lock:
                record.state = JobState.QUEUED
                record.requeues += 1
                record.error = None
                self._journal(record)
                self.queue.requeue(record)
            self.metrics.counter("service.jobs_requeued").inc()
            return True
        return False

    def _finish(self, record: JobRecord, state: str) -> None:
        """Terminal transition; caller holds the lock."""
        record.state = state
        record.finished_at = self._wall_clock()
        self._journal(record)
        if self._inflight.get(record.cache_key) == record.id:
            del self._inflight[record.cache_key]
        self._cancel_requested.discard(record.id)
        self.metrics.counter(
            {
                JobState.DONE: "service.jobs_completed",
                JobState.PARTIAL: "service.jobs_completed",
                JobState.FAILED: "service.jobs_failed",
                JobState.CANCELLED: "service.jobs_cancelled",
            }.get(state, "service.jobs_finished_other")
        ).inc()

    def _journal(self, record: JobRecord) -> None:
        try:
            self._jobs_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_json(
                self._jobs_dir / f"{record.id}.json", record.to_json()
            )
        except OSError:
            # A journal write failure degrades restart fidelity, never
            # the in-memory run (same policy as checkpoint saves).
            self.metrics.counter("service.journal_write_errors").inc()
