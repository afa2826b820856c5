"""JobManager: single-flight, supervision, breaker, drain, recovery.

Everything here runs against injected fake executors, so the
concurrency invariants are exercised in-process and fast; the real
child-process path is covered by ``test_service_e2e`` and the
``chaos-exec`` harness.
"""

import os
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.jobs import JobSpec, JobState
from repro.service.runner import (
    CircuitBreaker,
    JobManager,
    JobOutput,
    child_env,
)


def _spec(seed: int) -> JobSpec:
    return JobSpec.from_request("grid", {"rows": 4, "cols": 4, "seed": seed})


def _wait_terminal(manager: JobManager, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        records = manager.records()
        if records and all(
            r.state in JobState.TERMINAL for r in records
        ):
            return True
        time.sleep(0.005)
    return False


def _wait(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class CountingExecutor:
    """Deterministic artifact per cache key; thread-safe call counts."""

    def __init__(self, exit_status: int = 0, delay: float = 0.0):
        self.exit_status = exit_status
        self.delay = delay
        self.calls = {}
        self._lock = threading.Lock()

    def run(self, record, job_dir, checkpoint_dir):
        with self._lock:
            self.calls[record.cache_key] = (
                self.calls.get(record.cache_key, 0) + 1
            )
        if self.delay:
            time.sleep(self.delay)
        return JobOutput(
            stdout=b"artifact:" + record.cache_key.encode(),
            stderr="made by fake",
            exit_status=self.exit_status,
        )


class BlockingExecutor:
    """Holds jobs until released; supports checkpoint-style interrupt."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.interrupted = set()
        self._lock = threading.Lock()

    def run(self, record, job_dir, checkpoint_dir):
        self.started.set()
        self.release.wait(timeout=30.0)
        with self._lock:
            if record.id in self.interrupted:
                return JobOutput(b"", "interrupted", exit_status=-2)
        return JobOutput(
            b"slow:" + record.cache_key.encode(), "", exit_status=0
        )

    def interrupt(self, job_id):
        with self._lock:
            self.interrupted.add(job_id)
        self.release.set()
        return True


class FlakyExecutor:
    """Dies by signal N times per key, then succeeds (worker death)."""

    def __init__(self, deaths: int):
        self.deaths = deaths
        self.calls = {}

    def run(self, record, job_dir, checkpoint_dir):
        count = self.calls.get(record.cache_key, 0) + 1
        self.calls[record.cache_key] = count
        if count <= self.deaths:
            return JobOutput(b"", "killed", exit_status=-9)
        return JobOutput(b"ok:" + record.cache_key.encode(), "", 0)


class TestHappyPath:
    def test_done_then_cached(self, tmp_path):
        fake = CountingExecutor()
        manager = JobManager(tmp_path, execute=fake, workers=1)
        manager.start()
        try:
            first = manager.submit(_spec(1))
            assert first.status == "queued"
            assert _wait_terminal(manager)
            record = manager.get(first.record.id)
            assert record.state == JobState.DONE
            payload, reason = manager.result(record.id)
            assert reason == "ok" and payload == b"artifact:" + (
                record.cache_key.encode()
            )
            again = manager.submit(_spec(1))
            assert again.status == "cached"
            assert again.record.outcome == "cached"
            assert manager.result(again.record.id)[0] == payload
            assert fake.calls[record.cache_key] == 1
        finally:
            manager.drain(grace=0.0)

    def test_journal_written_per_transition(self, tmp_path):
        manager = JobManager(tmp_path, execute=CountingExecutor(), workers=1)
        manager.start()
        try:
            outcome = manager.submit(_spec(2))
            assert _wait_terminal(manager)
            journal = tmp_path / "jobs" / f"{outcome.record.id}.json"
            assert journal.is_file()
            assert b'"state": "done"' in journal.read_bytes()
        finally:
            manager.drain(grace=0.0)

    def test_status_document_shape(self, tmp_path):
        manager = JobManager(tmp_path, execute=CountingExecutor(), workers=1)
        manager.start()
        try:
            outcome = manager.submit(_spec(3))
            assert _wait_terminal(manager)
            document = manager.status(outcome.record.id)
            assert document["state"] == "done"
            assert set(document["progress"]) == {
                "completed_chunks", "total_chunks", "runs",
            }
            assert "counters" in document["metrics"]
            assert manager.status("j999999") is None
        finally:
            manager.drain(grace=0.0)


class TestSingleFlight:
    def test_concurrent_identical_submissions_attach(self, tmp_path):
        blocking = BlockingExecutor()
        manager = JobManager(tmp_path, execute=blocking, workers=1)
        manager.start()
        try:
            first = manager.submit(_spec(1))
            assert blocking.started.wait(5.0)
            attached = [manager.submit(_spec(1)) for _ in range(5)]
            assert all(r.status == "deduplicated" for r in attached)
            assert all(
                r.record.id == first.record.id for r in attached
            )
            blocking.release.set()
            assert _wait_terminal(manager)
            assert (
                manager.metrics.counter("service.jobs_deduplicated").value
                == 5
            )
            assert manager.metrics.counter("service.executions").value == 1
        finally:
            manager.drain(grace=0.0)

    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=1, max_value=3), min_size=1, max_size=12
        )
    )
    def test_any_interleaving_computes_each_key_once(self, tmp_path_factory, seeds):
        """K identical + M distinct submissions, any interleaving:
        exactly one computation per distinct spec, and every submission's
        result is byte-identical to that computation."""
        workdir = tmp_path_factory.mktemp("single-flight")
        fake = CountingExecutor(delay=0.002)
        manager = JobManager(workdir, execute=fake, workers=3)
        manager.start()
        try:
            outcomes = [manager.submit(_spec(seed)) for seed in seeds]
            assert all(o.accepted for o in outcomes)
            assert _wait_terminal(manager)
            assert fake.calls == {
                _spec(seed).cache_key: 1 for seed in set(seeds)
            }
            for seed, outcome in zip(seeds, outcomes):
                payload, reason = manager.result(outcome.record.id)
                assert reason == "ok"
                assert payload == b"artifact:" + (
                    _spec(seed).cache_key.encode()
                )
        finally:
            manager.drain(grace=0.0)


class TestPartialResults:
    def test_exit_3_is_partial_and_never_cached(self, tmp_path):
        manager = JobManager(
            tmp_path, execute=CountingExecutor(exit_status=3), workers=1
        )
        manager.start()
        try:
            outcome = manager.submit(_spec(1), deadline=0.5)
            assert _wait_terminal(manager)
            record = manager.get(outcome.record.id)
            assert record.state == JobState.PARTIAL
            assert record.incomplete
            payload, reason = manager.result(record.id)
            assert reason == "partial"
            assert payload.startswith(b"artifact:")
            # The partial artifact must not satisfy the result cache:
            # a new identical submission runs (and could complete) anew.
            again = manager.submit(_spec(1))
            assert again.status == "queued"
        finally:
            manager.drain(grace=0.0)


class TestSupervision:
    def test_worker_death_is_retried_to_success(self, tmp_path):
        flaky = FlakyExecutor(deaths=1)
        manager = JobManager(tmp_path, execute=flaky, workers=1)
        manager.start()
        try:
            outcome = manager.submit(_spec(1))
            assert _wait_terminal(manager)
            record = manager.get(outcome.record.id)
            assert record.state == JobState.DONE
            assert record.attempts == 2
            assert (
                manager.metrics.counter("service.worker_restarts").value == 1
            )
        finally:
            manager.drain(grace=0.0)

    @pytest.mark.parametrize("max_attempts", (2, 3))
    def test_deaths_exhaust_max_attempts_with_stderr_tail(
        self, tmp_path, max_attempts
    ):
        fake = CountingExecutor(exit_status=-9)
        manager = JobManager(
            tmp_path, execute=fake, workers=1, max_attempts=max_attempts
        )
        manager.start()
        try:
            outcome = manager.submit(_spec(1))
            assert _wait_terminal(manager)
            record = manager.get(outcome.record.id)
            assert record.state == JobState.FAILED
            assert record.attempts == max_attempts
            assert fake.calls == {record.cache_key: max_attempts}
            assert record.error == (
                f"failed after {max_attempts} attempt(s); last exit -9"
            )
            assert record.stderr_tail == "made by fake"
            assert manager.result(record.id) == (None, JobState.FAILED)
            assert (
                manager.metrics.counter("service.worker_restarts").value
                == max_attempts - 1
            )
        finally:
            manager.drain(grace=0.0)

    def test_failed_exit_is_not_retried(self, tmp_path):
        """Only a death by signal re-runs a job: the same argv exits 7
        the same way every time."""
        fake = CountingExecutor(exit_status=7)
        manager = JobManager(tmp_path, execute=fake, workers=1, max_attempts=3)
        manager.start()
        try:
            outcome = manager.submit(_spec(1))
            assert _wait_terminal(manager)
            record = manager.get(outcome.record.id)
            assert record.state == JobState.FAILED
            assert record.attempts == 1
            assert fake.calls == {record.cache_key: 1}
            assert record.error == "failed after 1 attempt(s); last exit 7"
            assert (
                manager.metrics.counter("service.worker_restarts").value == 0
            )
        finally:
            manager.drain(grace=0.0)

    def test_breaker_trips_after_consecutive_class_failures(self, tmp_path):
        fake = CountingExecutor(exit_status=-9)
        manager = JobManager(
            tmp_path,
            execute=fake,
            workers=1,
            max_attempts=2,
            breaker_threshold=2,
        )
        manager.start()
        try:
            for seed in (1, 2):  # two grid failures trip the grid breaker
                manager.submit(_spec(seed))
                assert _wait_terminal(manager)
            assert manager.metrics.counter("service.breaker_trips").value == 1
            third = manager.submit(_spec(3))
            assert _wait_terminal(manager)
            record = manager.get(third.record.id)
            assert record.state == JobState.FAILED
            assert record.attempts == 1  # fast fail: one attempt, not two
            assert (
                manager.metrics.counter("service.breaker_fast_fails").value
                == 1
            )
            # A success closes the breaker again.
            fake.exit_status = 0
            manager.submit(_spec(4))
            assert _wait_terminal(manager)
            fake.exit_status = -9
            fifth = manager.submit(_spec(5))
            assert _wait_terminal(manager)
            assert manager.get(fifth.record.id).attempts == 2
        finally:
            manager.drain(grace=0.0)

    def test_breaker_reopens_after_closing(self):
        """Trips once per open spell, and a success resets the count, so
        the next spell needs ``threshold`` more failures."""
        breaker = CircuitBreaker(threshold=2)
        assert [breaker.record_failure() for _ in range(3)] == [
            False, True, False,
        ]
        assert breaker.attempts(5) == 1
        breaker.record_success()
        assert breaker.attempts(5) == 5
        assert [breaker.record_failure() for _ in range(2)] == [False, True]

    def test_breaker_trips_and_fast_fails(self):
        """``threshold`` consecutive failures open it; while open, every
        job gets a single fast-fail run instead of its budget."""
        breaker = CircuitBreaker(threshold=2)
        assert breaker.attempts(3) == 3
        assert breaker.record_failure() is False
        assert breaker.attempts(3) == 3
        assert breaker.record_failure() is True
        assert breaker.is_open
        assert [breaker.attempts(3) for _ in range(3)] == [1, 1, 1]

    def test_success_closes_the_breaker(self):
        """A success closes it and resets the count: an isolated failure
        afterwards keeps the full budget."""
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.is_open
        assert breaker.failures == 0
        assert breaker.record_failure() is False
        assert breaker.attempts(3) == 3

    def test_max_attempts_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            JobManager(tmp_path, execute=CountingExecutor(), max_attempts=0)

    def test_breaker_threshold_positive(self, tmp_path):
        with pytest.raises(ValueError, match="breaker_threshold"):
            JobManager(
                tmp_path, execute=CountingExecutor(), breaker_threshold=0
            )


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        blocking = BlockingExecutor()
        manager = JobManager(tmp_path, execute=blocking, workers=1)
        manager.start()
        try:
            manager.submit(_spec(1))
            assert blocking.started.wait(5.0)
            queued = manager.submit(_spec(2))
            ok, reason = manager.cancel(queued.record.id)
            assert ok and reason == "cancelled"
            assert (
                manager.get(queued.record.id).state == JobState.CANCELLED
            )
            blocking.release.set()
            assert _wait_terminal(manager)
        finally:
            manager.drain(grace=0.0)

    def test_cancel_running_job_interrupts(self, tmp_path):
        blocking = BlockingExecutor()
        manager = JobManager(tmp_path, execute=blocking, workers=1)
        manager.start()
        try:
            outcome = manager.submit(_spec(1))
            assert blocking.started.wait(5.0)
            ok, reason = manager.cancel(outcome.record.id)
            assert ok and reason == "cancelling"
            assert _wait_terminal(manager)
            assert (
                manager.get(outcome.record.id).state == JobState.CANCELLED
            )
        finally:
            manager.drain(grace=0.0)

    def test_cancel_unknown_and_terminal(self, tmp_path):
        manager = JobManager(tmp_path, execute=CountingExecutor(), workers=1)
        manager.start()
        try:
            assert manager.cancel("j999999") == (False, "not-found")
            outcome = manager.submit(_spec(1))
            assert _wait_terminal(manager)
            ok, reason = manager.cancel(outcome.record.id)
            assert not ok and "already" in reason
        finally:
            manager.drain(grace=0.0)


class TestDrainAndRecovery:
    def test_drain_requeues_interrupted_job(self, tmp_path):
        blocking = BlockingExecutor()
        manager = JobManager(tmp_path, execute=blocking, workers=1)
        manager.start()
        outcome = manager.submit(_spec(1))
        assert blocking.started.wait(5.0)
        summary = manager.drain(grace=0.05)
        assert summary["interrupted"] == 1
        record = manager.get(outcome.record.id)
        assert record.state == JobState.QUEUED
        assert record.requeues == 1
        journal = (tmp_path / "jobs" / f"{record.id}.json").read_bytes()
        assert b'"state": "queued"' in journal

    def test_restart_resumes_journaled_jobs_byte_identically(self, tmp_path):
        blocking = BlockingExecutor()
        manager = JobManager(tmp_path, execute=blocking, workers=1)
        manager.start()
        outcome = manager.submit(_spec(1))
        queued = manager.submit(_spec(2))
        assert blocking.started.wait(5.0)
        manager.drain(grace=0.05)
        # A fresh manager over the same state dir resumes both jobs.
        fake = CountingExecutor()
        revived = JobManager(tmp_path, execute=fake, workers=1)
        assert revived.get(outcome.record.id).outcome == "resumed"
        revived.start()
        try:
            assert _wait_terminal(revived)
            for job_id, seed in (
                (outcome.record.id, 1), (queued.record.id, 2),
            ):
                payload, reason = revived.result(job_id)
                assert reason == "ok"
                assert payload == b"artifact:" + _spec(seed).cache_key.encode()
            assert (
                revived.metrics.counter("service.jobs_recovered").value == 2
            )
        finally:
            revived.drain(grace=0.0)

    def test_job_drained_three_times_still_runs(self, tmp_path):
        """Drain interruptions are journaled in ``attempts`` but never
        spend the death budget: the fourth incarnation runs the job
        instead of failing it unrun."""
        job_id = None
        for _ in range(3):
            blocking = BlockingExecutor()
            manager = JobManager(tmp_path, execute=blocking, workers=1)
            if job_id is None:
                job_id = manager.submit(_spec(1)).record.id
            manager.start()
            assert blocking.started.wait(5.0)
            manager.drain(grace=0.0)
            assert manager.get(job_id).state == JobState.QUEUED
        fake = CountingExecutor()
        revived = JobManager(tmp_path, execute=fake, workers=1)
        revived.start()
        try:
            assert _wait_terminal(revived)
            record = revived.get(job_id)
            assert record.state == JobState.DONE
            assert record.attempts == 4
            assert fake.calls == {record.cache_key: 1}
        finally:
            revived.drain(grace=0.0)

    def test_requeued_job_runs_once_under_an_open_breaker(self, tmp_path):
        """A requeued job whose kind's breaker opened still gets its one
        fast-fail run."""
        blocking = BlockingExecutor()
        manager = JobManager(tmp_path, execute=blocking, workers=2)
        failing = manager.submit(_spec(1)).record.id
        requeued = manager.submit(_spec(2)).record.id
        manager.start()
        assert _wait(
            lambda: all(
                manager.get(job_id).state == JobState.RUNNING
                for job_id in (failing, requeued)
            )
        )
        manager.drain(grace=0.0)

        class FailsTheFirstJob(CountingExecutor):
            def run(self, record, job_dir, checkpoint_dir):
                output = super().run(record, job_dir, checkpoint_dir)
                status = 7 if record.id == failing else 0
                return JobOutput(output.stdout, output.stderr, status)

        fake = FailsTheFirstJob()
        revived = JobManager(
            tmp_path, execute=fake, workers=1, breaker_threshold=1
        )
        revived.start()
        try:
            assert _wait_terminal(revived)
            assert revived.get(failing).state == JobState.FAILED
            assert (
                revived.metrics.counter("service.breaker_trips").value == 1
            )
            record = revived.get(requeued)
            assert record.state == JobState.DONE
            assert fake.calls[record.cache_key] == 1
        finally:
            revived.drain(grace=0.0)

    def test_unloadable_journal_entry_keeps_its_id(self, tmp_path):
        manager = JobManager(tmp_path, execute=CountingExecutor(), workers=1)
        manager.submit(_spec(1))
        old = manager.submit(_spec(2)).record.id
        # Recovery skips an entry it cannot load (torn, or a spec an
        # older service admitted and this one rejects)...
        entry = tmp_path / "jobs" / f"{old}.json"
        torn = entry.read_text()[:40]
        entry.write_text(torn)
        revived = JobManager(tmp_path, execute=CountingExecutor(), workers=1)
        # ...but a new job must not take its id and overwrite it.
        assert revived.submit(_spec(3)).record.id != old
        assert entry.read_text() == torn
        assert revived.metrics.counter("service.journal_skipped").value == 1

    def test_journaled_spec_now_rejected_fails_instead_of_vanishing(
        self, tmp_path
    ):
        import json

        manager = JobManager(tmp_path, execute=CountingExecutor(), workers=1)
        job_id = manager.submit(_spec(1)).record.id
        # An older service admitted lifecycle ``rate`` without
        # ``processes``; this one rejects it.
        entry = tmp_path / "jobs" / f"{job_id}.json"
        document = json.loads(entry.read_text())
        document["spec"] = {"kind": "lifecycle", "params": {"rate": 0.002}}
        entry.write_text(json.dumps(document))
        executor = CountingExecutor()
        revived = JobManager(tmp_path, execute=executor, workers=1)
        revived.start()
        try:
            record = revived.get(job_id)
            assert record is not None
            assert record.state == JobState.FAILED
            assert "--rate requires --processes" in record.error
            assert record.spec.param_dict() == {"rate": 0.002}
            assert revived.status(job_id)["state"] == JobState.FAILED
            assert revived.metrics.counter("service.jobs_failed").value == 1
            assert json.loads(entry.read_text())["state"] == JobState.FAILED
            assert executor.calls == {}
        finally:
            revived.drain(grace=0.0)

    def test_drain_sheds_new_submissions(self, tmp_path):
        manager = JobManager(tmp_path, execute=CountingExecutor(), workers=1)
        manager.start()
        manager.drain(grace=0.0)
        outcome = manager.submit(_spec(9))
        assert outcome.status == "rejected-draining"
        assert outcome.retry_after >= 1

    def test_overload_sheds_with_retry_after(self, tmp_path):
        blocking = BlockingExecutor()
        manager = JobManager(
            tmp_path, execute=blocking, workers=1, queue_capacity=1
        )
        manager.start()
        try:
            manager.submit(_spec(1))
            assert blocking.started.wait(5.0)
            assert manager.submit(_spec(2)).status == "queued"
            shed = manager.submit(_spec(3))
            assert shed.status == "rejected-overload"
            assert shed.retry_after >= 1
            assert shed.record is None
            blocking.release.set()
            assert _wait_terminal(manager)
            assert (
                manager.metrics.counter(
                    "service.admission_shed_overload"
                ).value
                == 1
            )
        finally:
            manager.drain(grace=0.0)


class TestChildEnv:
    def test_strips_inherited_chaos_knobs_and_puts_src_first(
        self, monkeypatch
    ):
        import repro

        monkeypatch.setenv("REPRO_CHAOS_KILL_AFTER_CHUNK", "1")
        monkeypatch.setenv("PYTHONPATH", "elsewhere")
        env = child_env({"REPRO_CHAOS_HANG_SECS": "600"})
        assert "REPRO_CHAOS_KILL_AFTER_CHUNK" not in env
        assert env["REPRO_CHAOS_HANG_SECS"] == "600"
        src = str(Path(repro.__file__).resolve().parents[1])
        assert env["PYTHONPATH"] == f"{src}{os.pathsep}elsewhere"
