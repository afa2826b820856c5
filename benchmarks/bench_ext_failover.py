"""Extension (paper Sections 2.3 / 7): system-level failover and recovery.

The paper describes heartbeat monitoring, watchdog cell disable, memory
salvage, and control-processor rerouting but leaves their evaluation to
future work.  This benchmark runs a full image job on a grid that loses
cells mid-flight and measures the recovery machinery end to end.
"""

import pytest

from benchmarks.conftest import scaled
from repro.grid.simulator import GridSimulator
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import hue_shift

#: 64 pixels normally, 48 under smoke -- still enough that both kills
#: (cycles 30 and 90) land while the job is in flight.
SIZE = scaled((8, 8), (8, 6))


def run_failover_job():
    sim = GridSimulator(
        rows=3,
        cols=3,
        seed=31,
        kill_schedule={30: [(1, 1)], 90: [(0, 2)]},
    )
    return sim.run_image_job(gradient(*SIZE), hue_shift(), max_rounds=4)


def test_bench_failover_recovery():
    outcome = run_failover_job()
    stats = outcome.stats
    print()
    print(f"  failed cells : {stats.failed_cells}")
    print(f"  salvaged     : {stats.salvaged_words} words "
          f"(lost {stats.lost_words})")
    print(f"  rounds       : {outcome.job.rounds}, cycles {stats.cycles}")
    print(f"  pixel accuracy after recovery: {outcome.pixel_accuracy:.3f}")
    assert len(stats.failed_cells) == 2
    assert outcome.pixel_accuracy == 1.0


def run_unsalvageable_job():
    sim = GridSimulator(
        rows=3,
        cols=3,
        seed=32,
        kill_schedule={40: [(1, 1)]},
        memory_salvageable=False,
    )
    return sim.run_image_job(gradient(*SIZE), hue_shift(), max_rounds=4)


def test_bench_failover_without_salvage():
    """When the dead cell's memory is gone too, only the control
    processor's retry protocol recovers -- at a cycle cost."""
    outcome = run_unsalvageable_job()
    print()
    print(f"  rounds={outcome.job.rounds} cycles={outcome.stats.cycles} "
          f"accuracy={outcome.pixel_accuracy:.3f}")
    assert outcome.pixel_accuracy == 1.0
    assert outcome.job.rounds >= 2  # retry was actually needed
