"""Extension: sustained throughput versus transient fault pressure.

The paper measures *accuracy* versus fault rate; a deployed co-processor
also pays in *time*; faulty cells accumulate heartbeat errors, get
disabled, and their work rides the retry protocol.  This bench runs the
same image job at increasing per-cell ALU fault rates and reports cycles
per completed job, surviving cells, and accuracy together.
"""

from benchmarks.conftest import scaled
from repro.faults.mask import ExactFractionMask
from repro.grid.simulator import GridSimulator
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import reverse_video

# The asserts key on the endpoints; smoke sweeps just those.
FAULT_PERCENTS = scaled((0.0, 1.0, 3.0, 5.0), (0.0, 5.0))


def run_sweep(scheme: str):
    rows = []
    for percent in FAULT_PERCENTS:
        sim = GridSimulator(
            rows=3,
            cols=3,
            alu_scheme=scheme,
            alu_fault_policy=(
                ExactFractionMask(percent / 100) if percent else None
            ),
            error_threshold=6,
            adaptive_routing=True,
            seed=2004,
        )
        outcome = sim.run_image_job(gradient(8, 8), reverse_video(),
                                    max_rounds=4)
        alive = len(sim.grid.alive_cells())
        rows.append(
            (percent, outcome.stats.cycles, outcome.job.rounds, alive,
             outcome.pixel_accuracy)
        )
    return rows


def test_bench_throughput_vs_fault_rate():
    uncoded = run_sweep("none")
    tmr = run_sweep("tmr")
    print()
    for scheme, rows in (("none", uncoded), ("tmr", tmr)):
        print(f"  scheme={scheme}")
        print(f"  {'fault %':>8}  {'cycles':>7}  {'rounds':>6}  "
              f"{'alive':>5}  {'accuracy':>8}")
        for percent, cycles, rounds, alive, accuracy in rows:
            print(f"  {percent:>8g}  {cycles:>7}  {rounds:>6}  {alive:>5}  "
                  f"{accuracy:>8.3f}")

    # Fault-free baseline: one round, full grid, perfect image.
    assert uncoded[0][2] == 1 and uncoded[0][3] == 9 and uncoded[0][4] == 1.0
    # Uncoded cells blow their error budgets under fire: the watchdog
    # harvests cells and the job pays in cycles and/or accuracy.
    worst = uncoded[-1]
    assert worst[3] < 9 or worst[1] > uncoded[0][1]
    # TMR cells at the same rates stay alive and accurate.
    assert tmr[-1][3] == 9
    assert tmr[-1][4] >= 0.95
