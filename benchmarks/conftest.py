"""Shared helpers for the benchmark scripts.

Each ``bench_*`` module regenerates one table or figure of the paper (or
one extension/ablation study) and asserts the paper's qualitative claims
on the output, so ``pytest --ignore=benchmarks/e2e benchmarks`` is a
reproduction check.  The ``bench_perf_*`` scripts also hold same-run
speedup floors between the execution tiers.  Sweep sizes are reduced
from the paper's five-trials-per-workload where wall-clock matters; the
full-methodology numbers live in EXPERIMENTS.md (regenerated by
``python -m repro.experiments.run_all``).  Wall-clock performance of
user-facing runs is measured by ``benchmarks/e2e``.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads

#: True when ``REPRO_BENCH_SMOKE=1`` (the CI benchmarks job) asked for
#: shrunken workloads.  Every benchmark module that sizes a workload
#: must honour this -- through the smoke-aware constants below, through
#: :func:`scaled`, or by reading the variable itself.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def scaled(full, smoke):
    """``full`` normally, ``smoke`` under ``REPRO_BENCH_SMOKE=1``.

    The one-line lever that makes a benchmark smoke-capable: wrap each
    workload-sizing knob (trials, parts, grid sizes, sweep lengths) so
    the smoke run finishes CI-fast while the full run keeps its
    statistical weight.  Assertions that need the full sample size
    should be guarded with ``if not SMOKE:``.
    """
    return smoke if SMOKE else full


#: Reduced sweep for figure benches: the paper's low-density knee plus
#: the high-density tail.
BENCH_PERCENTS = (0, 0.5, 1, 2, 3, 5, 9, 20, 75)

#: Trials per workload for figure benches (paper: 5; smoke: 1).
BENCH_TRIALS = scaled(2, 1)


@pytest.fixture(scope="session")
def bench_streams():
    """The paper's two 64-instruction workloads."""
    return paper_workloads(gradient(8, 8))


def best_of(fn, rounds):
    """``(result, seconds)``: ``fn()``'s last result and the fastest of
    ``rounds`` wall-clock runs (the standard noise suppression)."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


#: The execution tiers of a fault campaign, slowest first.
TIERS = ("scalar", "batched", "compiled")

#: Same-run floors on how many times faster the compiled tier runs a
#: campaign suite than each other tier, held at smoke size (one trial
#: per workload).
SPEEDUP_FLOORS = {"scalar": 20.0, "batched": 2.0}

#: :func:`tier_speedups` times the tiers in turn, in this many blocks
#: of best-of-:data:`SPEEDUP_ROUNDS` runs each, and takes the median
#: over blocks of each within-block ratio.  Within a block the tiers are
#: timed milliseconds apart, so a slow spell of a shared host lands on
#: both sides of most ratios, and the median drops the blocks whose
#: ratio it splits; a global best-of-N can pair one tier's fast spell
#: with the other's slow one.
SPEEDUP_BLOCKS = 9
SPEEDUP_ROUNDS = 5


def tier_results(run):
    """``run(backend)`` once on every tier, checked field-identical.

    The tiers are three implementations of one campaign, so they must
    give the same trial stream bit for bit.
    """
    results = {backend: run(backend) for backend in TIERS}
    assert (
        results["scalar"].trials
        == results["batched"].trials
        == results["compiled"].trials
    ), "tiers diverged: the compiled kernel is not bit-identical"
    return results


def tier_speedups(run):
    """``(seconds, speedups)`` of ``run(backend)`` on every tier.

    :func:`tier_results` runs first, untimed, so first-use work (building
    a kernel entry, lowering a plan) stays off the clock.  Then the tiers
    take turns in :data:`SPEEDUP_BLOCKS` blocks; the scalar tier, two
    orders of magnitude slower, runs once a block.  ``seconds`` is each
    tier's fastest run, and ``speedups`` maps each tier of
    :data:`SPEEDUP_FLOORS` to the median over blocks of its block time
    over the compiled tier's.
    """
    tier_results(run)
    times = [
        {
            backend: best_of(
                lambda: run(backend),
                1 if backend == "scalar" else SPEEDUP_ROUNDS,
            )[1]
            for backend in TIERS
        }
        for _ in range(SPEEDUP_BLOCKS)
    ]
    seconds = {
        backend: min(block[backend] for block in times) for backend in TIERS
    }
    speedups = {
        tier: statistics.median(
            block[tier] / block["compiled"] for block in times
        )
        for tier in SPEEDUP_FLOORS
    }
    return seconds, speedups


def tier_summary(seconds, speedups):
    """One line of :func:`tier_speedups` output."""
    times = ", ".join(f"{tier} {seconds[tier] * 1e3:.2f}ms" for tier in TIERS)
    ratios = ", ".join(
        f"{speedup:.2f}x over {tier}" for tier, speedup in speedups.items()
    )
    return f"{times} ({ratios})"


def assert_speedup_floors(speedups, label):
    """Check :func:`tier_speedups` output against :data:`SPEEDUP_FLOORS`."""
    for tier, floor in SPEEDUP_FLOORS.items():
        assert speedups[tier] >= floor, (
            f"{label}: compiled only {speedups[tier]:.2f}x over {tier} "
            f"(floor {floor:g}x)"
        )


def print_series(title, percents, series):
    """Emit a figure's series to the benchmark log."""
    from repro.experiments.report import format_series

    print()
    print(title)
    print(format_series("fault%", list(percents), series))
