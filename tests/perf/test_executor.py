"""Tests for the parallel campaign executor and its picklable work specs."""

import multiprocessing
import os
import time

import pytest

from repro.alu.nanobox import NanoBoxALU
from repro.alu.redundancy import SimplexALU, SpaceRedundantALU
from repro.faults.mask import BernoulliMask, BurstMask, ExactFractionMask
from repro.perf import (
    ALUSpec,
    CampaignExecutionError,
    CampaignExecutor,
    CampaignWorkItem,
    ExecutorStats,
    PolicySpec,
    run_campaign_items,
)
from repro.perf import executor as executor_module
from repro.perf.executor import _execute_chunk

#: Sentinel path used by the crashing worker; set per-test, inherited by
#: forked pool workers.
_CRASH_SENTINEL = None


def _crash_once_then_run(items):
    """Worker fn that hard-kills its process the first time it runs.

    The sentinel file is created atomically, so exactly one worker dies
    (taking the whole pool with it); every later attempt -- including
    the executor's resubmission after the pool rebuild -- runs the chunk
    normally.  ``os._exit`` bypasses all cleanup, faithfully mimicking
    an OOM kill or segfault.
    """
    try:
        open(_CRASH_SENTINEL, "x").close()
    except FileExistsError:
        return _execute_chunk(items)
    os._exit(1)


def _crash_always(items):
    """Worker fn that always dies -- exhausts any retry budget."""
    os._exit(1)


def _hang_once_then_run(items):
    """Worker fn that wedges on the first attempt, then runs normally."""
    try:
        open(_CRASH_SENTINEL, "x").close()
    except FileExistsError:
        return _execute_chunk(items)
    time.sleep(300)


def _raise_keyboard_interrupt(items):
    """Worker fn standing in for Ctrl-C landing in a pool worker."""
    raise KeyboardInterrupt


class TestALUSpec:
    def test_variant_builds_named_alu(self):
        alu = ALUSpec.variant("alunn").build()
        assert alu.site_count == 512

    def test_spec_requires_name(self):
        with pytest.raises(ValueError):
            ALUSpec(module="none", scheme="none")

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError):
            ALUSpec(module="quantum", scheme="none", voter="tmr", name="x")

    @pytest.mark.parametrize(
        "module,voter", [("none", "tmr"), ("space", ""), ("time", "")]
    )
    def test_voter_matches_module(self, module, voter):
        with pytest.raises(ValueError):
            ALUSpec(module=module, scheme="none", voter=voter, name="x")

    def test_simplex_builds_wrapped_nanobox(self):
        alu = ALUSpec.simplex("hamming", name="lab").build()
        assert isinstance(alu, SimplexALU)
        assert isinstance(alu.core, NanoBoxALU)
        assert alu.site_space.name == "lab"

    def test_space_builds_redundant_alu(self):
        alu = ALUSpec.space("tmr", "cmos", name="sp").build()
        assert isinstance(alu, SpaceRedundantALU)

    def test_specs_are_hashable(self):
        assert len({ALUSpec.variant("alunn"), ALUSpec.variant("alunn")}) == 1


class TestPolicySpec:
    def test_exact(self):
        policy = PolicySpec.exact(0.25).build()
        assert isinstance(policy, ExactFractionMask)
        assert policy.fraction == 0.25

    def test_bernoulli(self):
        policy = PolicySpec.bernoulli(0.1).build()
        assert isinstance(policy, BernoulliMask)
        assert policy.probability == 0.1

    def test_burst(self):
        policy = PolicySpec(kind="burst", value=0.1, burst_length=3).build()
        assert isinstance(policy, BurstMask)
        assert policy.burst_length == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec(kind="gaussian", value=0.1)


def _items():
    return [
        CampaignWorkItem(
            alu=ALUSpec.variant(variant),
            policy=PolicySpec.exact(fraction),
            trials_per_workload=2,
            seed=77,
        )
        for variant in ("alunn", "alunh")
        for fraction in (0.0, 0.02)
    ]


class TestCampaignExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignExecutor(jobs=0)

    def test_serial_results_ordered(self):
        results = CampaignExecutor(jobs=1).run(_items())
        assert len(results) == 4
        # fraction 0.0 items (indices 0 and 2) are always fully correct
        assert results[0].percent_correct == 100.0
        assert results[2].percent_correct == 100.0

    def test_parallel_matches_serial(self):
        items = _items()
        serial = CampaignExecutor(jobs=1).run(items)
        parallel = CampaignExecutor(jobs=2).run(items)
        assert serial == parallel

    def test_explicit_chunk_size(self):
        items = _items()
        chunked = CampaignExecutor(jobs=2, chunk_size=3).run(items)
        assert chunked == CampaignExecutor(jobs=1).run(items)

    def test_chunksize_heuristic(self):
        executor = CampaignExecutor(jobs=4)
        assert executor._chunksize_for(100) == 100 // 16
        assert executor._chunksize_for(3) == 1

    def test_run_campaign_items_helper(self):
        items = _items()[:2]
        assert run_campaign_items(items) == CampaignExecutor(jobs=1).run(items)

    def test_empty_item_list(self):
        assert CampaignExecutor(jobs=2).run([]) == []

    def test_run_with_stats_serial(self):
        results, stats = CampaignExecutor(jobs=1).run_with_stats(_items())
        assert len(results) == 4
        assert stats == ExecutorStats(chunks=0, retries=0, pool_rebuilds=0)

    def test_run_with_stats_parallel_clean(self):
        executor = CampaignExecutor(jobs=2, chunk_size=1)
        results, stats = executor.run_with_stats(_items())
        assert results == CampaignExecutor(jobs=1).run(_items())
        assert stats.chunks == 4
        assert stats.retries == 0
        assert stats.pool_rebuilds == 0
        assert executor.last_stats is stats

    def test_successful_run_joins_its_workers(self, monkeypatch):
        """A clean run shuts its pool down and joins it: every worker
        exits on its own with status 0 instead of being terminated."""
        workers = []

        class RecordingPool(executor_module.ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                workers.extend((self._processes or {}).values())
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", RecordingPool)
        results = CampaignExecutor(jobs=2).run(_items())
        assert results == CampaignExecutor(jobs=1).run(_items())
        assert len(workers) == 2
        assert [proc.exitcode for proc in workers] == [0, 0]

    def test_invalid_retry_and_timeout_args(self):
        with pytest.raises(ValueError):
            CampaignExecutor(jobs=2, max_retries=-1)
        with pytest.raises(ValueError):
            CampaignExecutor(jobs=2, chunk_timeout=0)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash injection relies on fork inheriting the sentinel path",
)
class TestWorkerDeathRecovery:
    """The executor must survive a worker process dying mid-campaign."""

    def _crashing_executor(self, tmp_path, worker_fn, **kwargs):
        global _CRASH_SENTINEL
        _CRASH_SENTINEL = str(tmp_path / "crashed")
        executor = CampaignExecutor(jobs=2, chunk_size=2, **kwargs)
        executor._chunk_fn = worker_fn
        return executor

    def test_recovers_from_worker_crash(self, tmp_path):
        items = _items()
        serial = CampaignExecutor(jobs=1).run(items)
        executor = self._crashing_executor(tmp_path, _crash_once_then_run)
        results, stats = executor.run_with_stats(items)
        # Output identical to serial despite the dead worker.
        assert results == serial
        assert stats.retries >= 1
        assert stats.pool_rebuilds >= 1

    def test_retry_budget_exhausts(self, tmp_path):
        executor = self._crashing_executor(
            tmp_path, _crash_always, max_retries=1
        )
        with pytest.raises(CampaignExecutionError):
            executor.run(_items())
        assert executor.last_stats.retries >= 2

    def test_recovers_from_hung_worker(self, tmp_path):
        items = _items()[:2]
        serial = CampaignExecutor(jobs=1).run(items)
        executor = self._crashing_executor(
            tmp_path, _hang_once_then_run, chunk_timeout=10
        )
        results, stats = executor.run_with_stats(items)
        assert results == serial
        assert stats.retries >= 1

    def test_keyboard_interrupt_reraised_and_pool_torn_down(self, tmp_path):
        """Ctrl-C must kill the run -- no swallowing, no zombie workers."""
        executor = self._crashing_executor(tmp_path, _raise_keyboard_interrupt)
        with pytest.raises(KeyboardInterrupt):
            executor.run(_items())
        # The pool was discarded with cancel + terminate: every worker
        # exits promptly rather than lingering as a zombie.
        deadline = time.monotonic() + 10
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "workers still alive"
            time.sleep(0.05)
