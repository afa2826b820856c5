"""Ablation: memory scrubbing against persistent single-event upsets.

Section 2.2 triplicates the critical memory-word fields so a single
upset per field is voted away -- but upsets *accumulate* in storage over
a job's lifetime, and two hits on the same field defeat the vote.
Periodic scrubbing (rewriting each word in canonical form) resets the
clock: upsets must now coincide within one scrub interval.  This bench
sweeps the upset rate with scrubbing off and on.
"""

from benchmarks.conftest import scaled
from repro.grid.simulator import GridSimulator
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import reverse_video

UPSET_RATES = scaled((1e-4, 3e-4, 1e-3), (3e-4, 1e-3))


def run_sweep():
    rows = []
    for rate in UPSET_RATES:
        accuracies = {}
        for label, interval in (("no scrub", 0), ("scrub/8", 8)):
            sim = GridSimulator(
                rows=2, cols=2, seed=2004,
                memory_upset_rate=rate, scrub_interval=interval,
            )
            outcome = sim.run_image_job(gradient(8, 8), reverse_video())
            accuracies[label] = outcome.pixel_accuracy
        rows.append((rate, accuracies["no scrub"], accuracies["scrub/8"]))
    return rows


def test_bench_memory_scrubbing():
    rows = run_sweep()
    print()
    print(f"  {'upset rate':>12}  {'no scrub':>9}  {'scrub/8':>9}")
    for rate, plain, scrubbed in rows:
        print(f"  {rate:>12g}  {plain:>9.3f}  {scrubbed:>9.3f}")
    # Scrubbing must never hurt, and the cumulative benefit must show at
    # at least one swept rate.
    assert all(scrubbed >= plain - 0.02 for _, plain, scrubbed in rows)
    assert any(scrubbed > plain for _, plain, scrubbed in rows) or all(
        plain >= 0.99 for _, plain, _ in rows
    )
