"""Tests for the resilient chunked runner: the crash-safety contract.

The load-bearing property (hypothesis-checked below): a run interrupted
at *any* chunk boundary and then resumed produces results byte-for-byte
identical to an uninterrupted run -- for any task count, chunk size, and
interrupt point.
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_INCOMPLETE, _finish
from repro.perf import CampaignExecutor
from repro.perf.resilient import (
    ResilientRunner,
    ResilientRuntime,
    decode_campaign_result,
    encode_campaign_result,
    resilience_note,
    resilient_campaign_map,
)


#: Attempt log of the dying pool worker below; set per-test, inherited
#: by forked pool workers.
_ATTEMPT_LOG = None


def _die_logging_attempt(items):
    """Pool worker fn that appends one byte per attempt, then dies."""
    fd = os.open(_ATTEMPT_LOG, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    os.write(fd, b".")
    os.close(fd)
    os._exit(1)


def _double(_index, chunk):
    """The canonical pure chunk runner used throughout these tests."""
    return [{"task": task, "value": task * 2 + 1} for task in chunk]


def _runner(run_chunk=_double, **kwargs):
    runtime_kwargs = {
        key: kwargs.pop(key)
        for key in (
            "checkpoint_dir", "resume", "deadline", "chunk_size",
        )
        if key in kwargs
    }
    runtime = ResilientRuntime(**runtime_kwargs)
    return ResilientRunner(
        run_chunk, runtime=runtime, config={"test": "resilient"}, **kwargs
    )


class TestRuntimeValidation:
    def test_chunk_size_positive(self):
        with pytest.raises(ValueError):
            ResilientRuntime(chunk_size=0)

    def test_deadline_positive(self):
        with pytest.raises(ValueError):
            ResilientRuntime(deadline=0)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError):
            ResilientRuntime(resume=True)


class TestPlainRuns:
    def test_complete_run_without_store(self):
        outcome = _runner(chunk_size=3).run(list(range(8)))
        assert outcome.complete
        assert outcome.results == _double(0, list(range(8)))
        assert outcome.chunks == 3
        assert outcome.computed_chunks == 3
        assert outcome.reused_chunks == 0
        assert outcome.missing_tasks == []

    def test_empty_task_list(self):
        outcome = _runner().run([])
        assert outcome.complete
        assert outcome.results == []

    def test_result_arity_mismatch_is_a_bug(self):
        with pytest.raises(RuntimeError, match="results for"):
            _runner(lambda _i, chunk: []).run([1, 2])


class TestCheckpointReuse:
    def test_second_run_reuses_everything(self, tmp_path):
        calls = []

        def counting(_index, chunk):
            calls.append(list(chunk))
            return _double(_index, chunk)

        first = _runner(
            counting, checkpoint_dir=tmp_path, chunk_size=2
        ).run(list(range(6)))
        assert first.computed_chunks == 3
        calls.clear()
        second = _runner(
            counting, checkpoint_dir=tmp_path, resume=True, chunk_size=2
        ).run(list(range(6)))
        assert calls == []  # nothing recomputed
        assert second.reused_chunks == 3
        assert second.results == first.results

    def test_without_resume_flag_records_are_overwritten(self, tmp_path):
        _runner(checkpoint_dir=tmp_path, chunk_size=2).run(list(range(4)))
        again = _runner(checkpoint_dir=tmp_path, chunk_size=2).run(
            list(range(4))
        )
        assert again.reused_chunks == 0
        assert again.computed_chunks == 2

    def test_chunk_size_is_part_of_the_run_key(self, tmp_path):
        a = _runner(checkpoint_dir=tmp_path, chunk_size=2)
        b = _runner(checkpoint_dir=tmp_path, chunk_size=3)
        assert a.run_key != b.run_key  # stale partitions can never replay

    def test_corrupt_record_recomputed_on_resume(self, tmp_path):
        first = _runner(checkpoint_dir=tmp_path, chunk_size=2)
        first.run(list(range(4)))
        victim = first.store.path_for(1)
        victim.write_text(victim.read_text()[:20])  # truncate
        second = _runner(
            checkpoint_dir=tmp_path, resume=True, chunk_size=2
        )
        outcome = second.run(list(range(4)))
        assert outcome.complete
        assert outcome.reused_chunks == 1
        assert outcome.computed_chunks == 1
        assert outcome.checkpoint_stats.corruptions == 1
        assert list(second.store.directory.glob("*.corrupt*"))

    def test_arity_drift_payload_recomputed(self, tmp_path):
        """A valid record whose payload has the wrong arity is recomputed."""
        store_runner = _runner(checkpoint_dir=tmp_path, chunk_size=2)
        store_runner.run(list(range(4)))
        # Rewrite chunk 0 with a well-formed but wrong-arity payload.
        store_runner.store.save(0, [{"task": 0, "value": 1}] * 3)
        outcome = _runner(
            checkpoint_dir=tmp_path, resume=True, chunk_size=2
        ).run(list(range(4)))
        assert outcome.complete
        assert outcome.computed_chunks == 1
        assert outcome.results == _double(0, list(range(4)))


class TestDeadline:
    def _clock(self, times):
        times = iter(times)
        return lambda: next(times)

    def test_expired_deadline_skips_remaining_chunks(self):
        # start=0; chunk 0 scheduled at t=1; chunk 1 check at t=10 > 5.
        clock = self._clock([0, 1, 10, 10, 10, 10])
        runner = _runner(chunk_size=2, deadline=5, clock=clock)
        outcome = runner.run(list(range(6)))
        assert not outcome.complete
        assert outcome.deadline_hit
        assert outcome.computed_chunks == 1
        assert outcome.skipped_chunks == 2
        assert outcome.missing_tasks == [2, 3, 4, 5]
        assert outcome.results[:2] == _double(0, [0, 1])

    def test_generous_deadline_changes_nothing(self):
        outcome = _runner(chunk_size=2, deadline=10_000).run(list(range(6)))
        assert outcome.complete
        assert not outcome.deadline_hit

    def test_partial_progress_is_durable(self, tmp_path):
        clock = self._clock([0, 1, 10, 10, 10, 10])
        runner = _runner(
            chunk_size=2, deadline=5, clock=clock, checkpoint_dir=tmp_path
        )
        partial = runner.run(list(range(6)))
        assert not partial.complete
        resumed = _runner(
            chunk_size=2, checkpoint_dir=tmp_path, resume=True
        ).run(list(range(6)))
        assert resumed.complete
        assert resumed.reused_chunks == 1
        assert resumed.results == _double(0, list(range(6)))


class TestDeadLetters:
    def test_failing_chunk_runs_once_and_the_run_moves_on(self):
        calls = {}

        def broken_first_chunk(index, chunk):
            calls[index] = calls.get(index, 0) + 1
            if index == 0:
                raise RuntimeError("permanently broken")
            return _double(index, chunk)

        outcome = _runner(broken_first_chunk, chunk_size=2).run(
            list(range(6))
        )
        assert not outcome.complete
        # One run per chunk: the runner never re-runs a chunk.
        assert calls == {0: 1, 1: 1, 2: 1}
        assert len(outcome.dead_letters) == 1
        letter = outcome.dead_letters[0]
        assert letter.chunk == 0
        assert "permanently broken" in letter.error
        # Later chunks completed.
        assert outcome.missing_tasks == [0, 1]
        assert outcome.results[2:] == _double(0, list(range(2, 6)))

    def test_dead_letter_is_recomputed_on_resume(self, tmp_path):
        def broken_middle(index, chunk):
            if index == 1:
                raise RuntimeError("transient")
            return _double(index, chunk)

        first = _runner(
            broken_middle, chunk_size=2, checkpoint_dir=tmp_path
        ).run(list(range(6)))
        assert [letter.chunk for letter in first.dead_letters] == [1]
        state = json.loads(
            next(tmp_path.glob("*/state.json")).read_text()
        )
        assert state["status"] == "partial"
        assert state["dead_letters"] == [
            {"chunk": 1, "error": "RuntimeError('transient')"}
        ]
        resumed = _runner(
            chunk_size=2, checkpoint_dir=tmp_path, resume=True
        ).run(list(range(6)))
        assert resumed.complete
        assert (resumed.reused_chunks, resumed.computed_chunks) == (2, 1)
        assert resumed.results == _double(0, list(range(6)))

    def test_keyboard_interrupt_propagates(self, tmp_path):
        def interrupted(index, chunk):
            if index == 1:
                raise KeyboardInterrupt
            return _double(index, chunk)

        runner = _runner(
            interrupted, chunk_size=2, checkpoint_dir=tmp_path
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run(list(range(4)))
        # Chunk 0 was durably checkpointed before the interrupt ...
        assert runner.store.completed_indices() == [0]
        # ... and the state file records the interruption.
        state = json.loads((runner.store.directory / "state.json").read_text())
        assert state["status"] == "interrupted"


@settings(max_examples=40, deadline=None)
@given(
    n_tasks=st.integers(min_value=1, max_value=20),
    chunk_size=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_interrupt_at_any_chunk_boundary_resumes_byte_identically(
    tmp_path_factory, n_tasks, chunk_size, data
):
    """THE crash-safety property, for arbitrary partitionings.

    Interrupt (simulated SIGKILL: the runner simply never gets past
    chunk ``kill_at``) and resume must equal an uninterrupted run
    byte-for-byte, for every task count x chunk size x interrupt point.
    """
    tmp_path = tmp_path_factory.mktemp("resume")
    tasks = list(range(n_tasks))
    n_chunks = (n_tasks + chunk_size - 1) // chunk_size
    kill_at = data.draw(
        st.integers(min_value=0, max_value=n_chunks - 1), label="kill_at"
    )

    reference = _runner(chunk_size=chunk_size).run(tasks)
    assert reference.complete

    class Killed(BaseException):
        """Stands in for SIGKILL: nothing below may catch it."""

    def killed_runner(index, chunk):
        if index == kill_at:
            raise Killed
        return _double(index, chunk)

    first = _runner(
        killed_runner, chunk_size=chunk_size, checkpoint_dir=tmp_path
    )
    with pytest.raises(Killed):
        first.run(tasks)
    assert first.store.completed_indices() == list(range(kill_at))

    resumed = _runner(
        chunk_size=chunk_size, checkpoint_dir=tmp_path, resume=True
    ).run(tasks)
    assert resumed.complete
    assert resumed.reused_chunks == kill_at
    assert json.dumps(resumed.results, sort_keys=True) == json.dumps(
        reference.results, sort_keys=True
    )


class TestCampaignGlue:
    def _items(self):
        from repro.perf import ALUSpec, CampaignWorkItem, PolicySpec

        return [
            CampaignWorkItem(
                alu=ALUSpec.variant("alunn"),
                policy=PolicySpec.exact(fraction),
                trials_per_workload=1,
                seed=11,
            )
            for fraction in (0.0, 0.02)
        ]

    def test_codec_round_trips_exactly(self):
        from repro.perf import run_campaign_items

        result = run_campaign_items(self._items()[:1])[0]
        assert decode_campaign_result(
            json.loads(json.dumps(encode_campaign_result(result)))
        ) == result

    def test_matches_plain_executor_and_resumes_identically(self, tmp_path):
        from repro.perf import run_campaign_items

        items = self._items()
        plain = run_campaign_items(items)
        runtime = ResilientRuntime(checkpoint_dir=tmp_path, chunk_size=1)
        outcome = resilient_campaign_map(
            items, runtime=runtime, config={"t": "campaign"}
        )
        assert outcome.complete
        assert outcome.results == plain
        resumed = resilient_campaign_map(
            items,
            runtime=ResilientRuntime(
                checkpoint_dir=tmp_path, resume=True, chunk_size=1
            ),
            config={"t": "campaign"},
        )
        assert resumed.reused_chunks == 2
        assert resumed.results == plain

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the dying worker relies on fork inheriting the log path",
    )
    def test_dying_worker_is_retried_by_the_executor_alone(
        self, tmp_path, capsys
    ):
        """One retry layer: an always-dying pool worker's chunk is tried
        ``max_retries + 1`` times, all inside the executor, and the
        runner dead-letters it on that one failure -- a partial run,
        exit 3 -- instead of multiplying the executor's attempts."""
        global _ATTEMPT_LOG
        _ATTEMPT_LOG = str(tmp_path / "attempts")
        executor = CampaignExecutor(jobs=2, chunk_size=2)
        executor._chunk_fn = _die_logging_attempt
        runner = ResilientRunner(
            lambda _index, chunk: executor.run(chunk),
            runtime=ResilientRuntime(
                checkpoint_dir=tmp_path / "ck", chunk_size=2
            ),
            config={"t": "dying-worker"},
        )
        outcome = runner.run(self._items())
        assert os.path.getsize(_ATTEMPT_LOG) == 3  # executor max_retries + 1
        assert executor.last_stats.retries == 3
        assert [letter.chunk for letter in outcome.dead_letters] == [0]
        assert "CampaignExecutionError" in outcome.dead_letters[0].error
        assert _finish(outcome) == EXIT_INCOMPLETE
        assert "1 chunk(s) dead-lettered" in capsys.readouterr().out


class TestResilienceNote:
    def test_minimal_note(self):
        outcome = _runner(chunk_size=2).run(list(range(4)))
        note = resilience_note(outcome)
        assert "reused 0/2 chunk(s), computed 2" in note

    def test_full_note(self, tmp_path):
        first = _runner(checkpoint_dir=tmp_path, chunk_size=2)
        first.run(list(range(4)))
        victim = first.store.path_for(0)
        victim.write_text("{")
        clock_values = iter([0, 1, 10, 10])
        runner = _runner(
            checkpoint_dir=tmp_path, resume=True, chunk_size=2,
            deadline=5, clock=lambda: next(clock_values),
        )
        outcome = runner.run(list(range(4)))
        note = resilience_note(outcome)
        assert "quarantined 1 corrupt record(s)" in note
        assert "deadline hit" in note
