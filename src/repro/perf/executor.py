"""Process-pool fan-out of fault-injection campaign cells.

One :class:`CampaignWorkItem` is one (compute unit, mask policy) suite
run -- a plotted figure point or an ablation cell.  Items are
independent by construction: every trial stream is derived from the
item's own ``(seed, workload, trial)`` entropy, never from execution
order, so the executor may run them in any arrangement and the merged
results are identical to a serial sweep.

Determinism contract: :meth:`CampaignExecutor.run` returns results in
*input order*, and workers hold no mutable shared state, so a report
assembled from a parallel run is byte-for-byte identical to a serial
one -- even when a worker process dies mid-campaign.  CI asserts this.

Fault tolerance: long campaigns should survive a worker being OOM-killed
or segfaulting.  Work is submitted in indexed chunks; when the pool
breaks (:class:`BrokenProcessPool`) or a chunk exceeds its timeout, the
executor rebuilds the pool and resubmits only the unfinished chunks,
bounded by ``max_retries`` attempts per chunk.  Because items are pure
functions of their specs, a re-run chunk yields the same results, so
recovery never perturbs the output.  Genuine exceptions raised *by* an
item (a bad spec, say) are deterministic and propagate immediately
rather than burning retries.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.campaign import CampaignResult, FaultCampaign, Instruction
from repro.obs import Observer, get_observer, observing
from repro.perf.spec import ALUSpec, PolicySpec
from repro.workloads.bitmap import Bitmap, gradient


@dataclass(frozen=True)
class CampaignWorkItem:
    """One independently runnable campaign cell.

    Attributes:
        alu: recipe for the compute unit under test.
        policy: recipe for the fault-mask policy.
        trials_per_workload: trials pooled per workload (paper: 5).
        seed: base campaign seed.
        bitmap: workload image; ``None`` selects the paper's default
            8x8 gradient.  Leave it ``None`` unless the sweep really
            uses a custom image: the item then ships as pure spec --
            a few hundred bytes regardless of trial count or unit
            size -- and the worker rebuilds the default locally.
        backend: evaluation tier (``scalar``/``batched``/``compiled``/
            ``auto``).  Results are bit-identical on every tier.
    """

    alu: ALUSpec
    policy: PolicySpec
    trials_per_workload: int = 5
    seed: int = 2004
    bitmap: Optional[Bitmap] = field(default=None, compare=False)
    backend: str = "auto"


@dataclass
class ExecutorStats:
    """Accounting for one :meth:`CampaignExecutor.run_with_stats` call.

    Attributes:
        chunks: pool tasks submitted on the first attempt (0 when the
            run was serial).
        retries: chunk resubmissions after a broken pool or timeout.
        pool_rebuilds: times the process pool was torn down and
            recreated during recovery.
    """

    chunks: int = 0
    retries: int = 0
    pool_rebuilds: int = 0


class CampaignExecutionError(RuntimeError):
    """A chunk kept failing after exhausting its retry budget."""


#: Per-worker-process cache: unit + plan engine (``None`` until one is
#: built), keyed by the (hashable, frozen) ALU spec.  A sweep chunk runs
#: dozens of items over a handful of unit variants; without this every
#: item would re-lower and re-warm its engine, which costs more than
#: evaluation.  Engines are stateless across calls, so sharing never
#: perturbs results.
_WORKER_UNITS: Dict[ALUSpec, Tuple[object, object]] = {}


@functools.lru_cache(maxsize=1)
def _default_workloads() -> Mapping[str, Tuple[Instruction, ...]]:
    """The paper's workloads over the default 8x8 gradient, compiled once
    per process and frozen: every item without a custom bitmap shares
    them, and campaigns cache their instruction columns."""
    from repro.workloads.imaging import paper_workloads

    return MappingProxyType({
        name: tuple(stream)
        for name, stream in paper_workloads(gradient(8, 8)).items()
    })


def _execute_item(item: CampaignWorkItem) -> CampaignResult:
    """Worker entry point: rebuild the cell from its specs and run it.

    Module-level (not a closure) so it pickles for the process pool.
    Items arrive as pure specs (seed + recipes, no arrays) unless a
    custom bitmap rides along; the unit and its plan engine come from
    the per-process cache, and so do the default workloads.
    """
    from repro.workloads.imaging import paper_workloads

    obs = get_observer()
    if item.bitmap is None:
        workloads = _default_workloads()
        obs.metrics.counter("kernel.items_by_seed").inc()
    else:
        workloads = paper_workloads(item.bitmap)
        obs.metrics.counter("kernel.items_with_array").inc()
    unit, engine = _WORKER_UNITS.get(item.alu) or (item.alu.build(), None)
    campaign = FaultCampaign(unit, item.policy.build(), seed=item.seed)
    if engine is not None:
        campaign.use_engine(engine)
    result = campaign.run_workload_suite(
        workloads,
        trials_per_workload=item.trials_per_workload,
        backend=item.backend,
    )
    _WORKER_UNITS[item.alu] = (unit, campaign.built_engine() or engine)
    return result


#: Chaos hook (test/harness only): the first worker to claim this
#: sentinel file wedges for ``REPRO_CHAOS_HANG_SECS`` (default 600s),
#: simulating a deadlocked/swapping worker; later attempts -- including
#: the resubmission after the executor's timeout recovery -- run
#: normally.  Set by ``nanobox-repro chaos-exec --modes hang``.
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG_SENTINEL"


def _maybe_chaos_hang() -> None:
    """Honour the chaos harness's hung-worker knob (no-op normally)."""
    sentinel = os.environ.get(CHAOS_HANG_ENV)
    if sentinel is None:
        return
    try:
        open(sentinel, "x").close()
    except OSError:
        return  # someone already hung once; run normally
    time.sleep(float(os.environ.get("REPRO_CHAOS_HANG_SECS", "600")))


def _execute_chunk(
    items: Sequence[CampaignWorkItem],
) -> List[CampaignResult]:
    """Worker entry point for one indexed chunk of items."""
    _maybe_chaos_hang()
    return [_execute_item(item) for item in items]


def _execute_chunk_observed(
    items: Sequence[CampaignWorkItem],
) -> Tuple[List[CampaignResult], Dict[str, object], Tuple[Dict[str, object], ...]]:
    """Observed worker entry point: results + the worker's observability.

    Used instead of :func:`_execute_chunk` when the parent process has an
    observer installed.  The worker records into its own fresh observer
    (worker processes start at the null observer) and ships the metrics
    snapshot and trace records home with the results; the parent merges
    them.  The campaign results themselves are identical either way --
    observability never perturbs them.
    """
    worker_obs = Observer()
    with observing(worker_obs):
        results = _execute_chunk(items)
    return (
        results,
        worker_obs.metrics.snapshot(),
        worker_obs.trace.to_records(),
    )


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on its workers.

    A worker that timed out may be wedged (deadlocked, swapping);
    ``shutdown`` alone would leave it alive and block interpreter exit,
    so any survivors are terminated outright.
    """
    # Snapshot first: shutdown() drops the executor's process table.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except (AttributeError, OSError):  # already reaped
            pass


def default_jobs() -> int:
    """A sensible ``--jobs`` value for this machine (its CPU count)."""
    return os.cpu_count() or 1


class CampaignExecutor:
    """Runs campaign work items, serially or across a process pool.

    Args:
        jobs: worker process count.  ``1`` (the default) runs inline in
            the calling process with no pool at all -- identical to the
            pre-parallel behaviour, and what tests use.
        chunk_size: items per pool task; defaults to spreading the list
            over roughly four waves per worker, which amortises pickling
            without starving the pool on heterogeneous item costs.
        max_retries: resubmission budget per chunk when the pool breaks
            under it or its timeout elapses.
        chunk_timeout: seconds to wait for one chunk before declaring
            its worker hung and recycling the pool; ``None`` waits
            forever.
    """

    def __init__(
        self,
        jobs: int = 1,
        chunk_size: Optional[int] = None,
        max_retries: int = 2,
        chunk_timeout: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be positive, got {chunk_timeout}"
            )
        self._jobs = jobs
        self._chunk_size = chunk_size
        self._max_retries = max_retries
        self._chunk_timeout = chunk_timeout
        self._chunk_fn: Callable[
            [Sequence[CampaignWorkItem]], List[CampaignResult]
        ] = _execute_chunk
        self._last_stats = ExecutorStats()

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def last_stats(self) -> ExecutorStats:
        """Accounting for the most recent :meth:`run` call."""
        return self._last_stats

    def _chunksize_for(self, n_items: int) -> int:
        if self._chunk_size is not None:
            return self._chunk_size
        return max(1, n_items // (self._jobs * 4))

    def _chunked(
        self, items: List[CampaignWorkItem]
    ) -> List[List[CampaignWorkItem]]:
        size = self._chunksize_for(len(items))
        return [items[i : i + size] for i in range(0, len(items), size)]

    def run(self, items: Sequence[CampaignWorkItem]) -> List[CampaignResult]:
        """Execute every item; results are in input order, always."""
        results, _ = self.run_with_stats(items)
        return results

    def run_with_stats(
        self, items: Sequence[CampaignWorkItem]
    ) -> Tuple[List[CampaignResult], ExecutorStats]:
        """Execute every item and report retry/rebuild accounting."""
        obs = get_observer()
        with obs.metrics.time("executor.run"):
            results, stats = self._run_with_stats(items, obs)
        obs.metrics.counter("executor.items").inc(len(results))
        obs.metrics.counter("executor.chunks").inc(stats.chunks)
        obs.metrics.counter("executor.retries").inc(stats.retries)
        obs.metrics.counter("executor.pool_rebuilds").inc(stats.pool_rebuilds)
        return results, stats

    def _run_with_stats(
        self, items: Sequence[CampaignWorkItem], obs: Observer
    ) -> Tuple[List[CampaignResult], ExecutorStats]:
        items = list(items)
        stats = ExecutorStats()
        self._last_stats = stats
        if self._jobs == 1 or len(items) <= 1:
            # Inline: items run under the caller's observer directly.
            return [_execute_item(item) for item in items], stats
        # Only the stock chunk fn has an observed twin; a monkeypatched
        # chunk fn (the crash-injection tests) runs unobserved.
        observed = obs.enabled and self._chunk_fn is _execute_chunk
        chunk_fn = _execute_chunk_observed if observed else self._chunk_fn
        chunks = self._chunked(items)
        stats.chunks = len(chunks)
        workers = min(self._jobs, len(chunks))
        completed: Dict[int, List[CampaignResult]] = {}
        attempts: Dict[int, int] = {idx: 0 for idx in range(len(chunks))}

        def absorb(idx: int, payload) -> None:
            """Record one finished chunk, folding in worker observability."""
            if observed:
                results, metrics_snapshot, trace_records = payload
                obs.metrics.merge_snapshot(metrics_snapshot)
                obs.trace.extend(trace_records, source_prefix=f"chunk{idx}")
                completed[idx] = results
            else:
                completed[idx] = payload

        # Boxed so the loop can swap in a rebuilt pool and the teardown
        # below still reaches the *current* one.
        pool_ref = [ProcessPoolExecutor(max_workers=workers)]
        try:
            self._submission_loop(
                pool_ref, chunks, chunk_fn, completed, attempts,
                absorb, stats, workers, obs,
            )
        except BaseException as exc:
            if isinstance(exc, KeyboardInterrupt):
                # Ctrl-C mid-campaign: count it, then re-raise so the
                # caller -- e.g. the resilient runner, which flushes a
                # final checkpoint -- sees the real interrupt.
                obs.metrics.counter("executor.interrupts").inc()
                if obs.enabled:
                    obs.trace.emit(
                        "run_interrupted",
                        source="executor",
                        completed_chunks=len(completed),
                        total_chunks=len(chunks),
                    )
            # Cancel whatever has not started and kill the workers
            # outright: one may be wedged, and a join could hang.
            _discard_pool(pool_ref[0])
            raise
        # Every chunk landed: let the idle workers exit and join them,
        # so no worker or pipe outlives the run.
        pool_ref[0].shutdown(wait=True)
        results: List[CampaignResult] = []
        for idx in range(len(chunks)):
            results.extend(completed[idx])
        return results, stats

    def _submission_loop(
        self,
        pool_ref: List[ProcessPoolExecutor],
        chunks: List[List[CampaignWorkItem]],
        chunk_fn,
        completed: Dict[int, List[CampaignResult]],
        attempts: Dict[int, int],
        absorb,
        stats: ExecutorStats,
        workers: int,
        obs: Observer,
    ) -> None:
        """Submit/collect until every chunk lands (or a retry budget dies)."""
        pool = pool_ref[0]
        while len(completed) < len(chunks):
            pending = {
                pool.submit(chunk_fn, chunks[idx]): idx
                for idx in range(len(chunks))
                if idx not in completed
            }
            pool_dirty = False
            for future, idx in pending.items():
                if pool_dirty:
                    # A broken pool fails every sibling future too;
                    # collect what finished, resubmit the rest.
                    if future.done() and future.exception() is None:
                        absorb(idx, future.result())
                    continue
                try:
                    absorb(idx, future.result(timeout=self._chunk_timeout))
                except (BrokenProcessPool, FutureTimeout) as exc:
                    attempts[idx] += 1
                    stats.retries += 1
                    if obs.enabled:
                        obs.trace.emit(
                            "chunk_retried",
                            source="executor",
                            chunk=idx,
                            attempt=attempts[idx],
                            error=repr(exc),
                        )
                    if attempts[idx] > self._max_retries:
                        raise CampaignExecutionError(
                            f"chunk {idx} failed "
                            f"{attempts[idx]} times: {exc!r}"
                        ) from exc
                    pool_dirty = True
            if pool_dirty:
                # Recycle the pool: a broken one is unusable and a
                # timed-out worker may still be wedged inside it.
                _discard_pool(pool)
                pool = ProcessPoolExecutor(max_workers=workers)
                pool_ref[0] = pool
                stats.pool_rebuilds += 1


def run_campaign_items(
    items: Sequence[CampaignWorkItem], jobs: int = 1
) -> List[CampaignResult]:
    """Convenience wrapper: one-shot executor run.

    Recovery is silent in the results (they are identical either way),
    so any worker-death retries are noted on stderr for the CLI user.
    """
    executor = CampaignExecutor(jobs=jobs)
    results, stats = executor.run_with_stats(items)
    if stats.retries:
        print(
            f"campaign executor: recovered from {stats.retries} failed "
            f"chunk attempt(s) across {stats.pool_rebuilds} pool "
            f"rebuild(s); results are unaffected",
            file=sys.stderr,
        )
    return results
