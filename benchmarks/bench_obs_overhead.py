"""Overhead of the observability layer (PR 4 tentpole acceptance).

Runs the batched fault campaign three ways -- no observer installed
(the default null path), with a live observer, and back to the null
path -- and asserts the tentpole's two contracts:

* a live observer never perturbs results (suite outputs are equal);
* instrumentation costs < 5% wall clock on the campaign hot path,
  measured best-of-N against the uninstrumented baseline.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job) to shrink the workload
and skip the wall-clock ceiling while keeping the identity assertion.
"""

import os
import time

from repro.alu.variants import build_alu
from repro.faults.campaign import FaultCampaign
from repro.faults.mask import ExactFractionMask
from repro.obs import Observer, observing

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Trials per workload: enough batched suite passes that per-trial
#: instrumentation cost would show up in the total.
OVERHEAD_TRIALS = 2 if SMOKE else 40
OVERHEAD_ROUNDS = 1 if SMOKE else 5

#: Acceptance ceiling on (observed - bare) / bare.
MAX_OVERHEAD = 0.05


def _suite(bench_streams):
    campaign = FaultCampaign(
        build_alu("alunn"), ExactFractionMask(0.03), seed=7
    )
    return campaign.run_workload_suite(
        bench_streams, OVERHEAD_TRIALS, backend="batched"
    )


def _best_of(fn, rounds):
    best = None
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def test_bench_observed_campaign(benchmark, bench_streams):
    """Time the instrumented path so its cost shows in benchmark history."""

    def observed():
        with observing(Observer()):
            return _suite(bench_streams)

    result = benchmark.pedantic(
        observed, rounds=1 if SMOKE else 3, iterations=1
    )
    assert 0.0 <= result.percent_correct <= 100.0


def test_obs_overhead_under_ceiling(benchmark, bench_streams):
    """The tentpole acceptance check: <5% overhead, identical results."""
    bare_result, t_bare = _best_of(
        lambda: _suite(bench_streams), OVERHEAD_ROUNDS
    )

    def observed():
        obs = Observer()
        with observing(obs):
            result = _suite(bench_streams)
        return result, obs

    (obs_result, obs), t_obs = _best_of(observed, OVERHEAD_ROUNDS)
    benchmark.pedantic(lambda: _suite(bench_streams), rounds=1, iterations=1)

    # Never-perturb: the instrumented run computed the same experiment.
    assert obs_result == bare_result, "observer perturbed campaign results"
    # And it really did observe it.
    expected_trials = OVERHEAD_TRIALS * len(bench_streams)
    assert obs.metrics.counter("campaign.trials").value == expected_trials

    overhead = (t_obs - t_bare) / t_bare
    print(
        f"\nbatched suite x{OVERHEAD_TRIALS} trials: bare {t_bare:.3f}s, "
        f"observed {t_obs:.3f}s, overhead {overhead * 100:+.1f}%"
    )
    if not SMOKE:
        assert overhead < MAX_OVERHEAD, (
            f"observability overhead {overhead * 100:.1f}% exceeds "
            f"{MAX_OVERHEAD * 100:.0f}% ceiling"
        )
