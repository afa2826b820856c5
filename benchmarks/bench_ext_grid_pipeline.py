"""Extension (paper Section 7): cycle-based full-system simulation.

Runs a complete shift-in / compute / shift-out image job on the grid --
the paper's envisioned deployment -- and reports the per-phase cycle
budget, which is dominated by serialising 8-flit instruction packets over
the 8-bit edge buses exactly as the paper's bus math predicts.
"""

from repro.grid.simulator import GridSimulator
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import reverse_video


def run_pipeline():
    sim = GridSimulator(rows=4, cols=4, seed=11)
    return sim.run_image_job(gradient(8, 8), reverse_video())


def test_bench_grid_image_pipeline():
    outcome = run_pipeline()
    cycles = outcome.job.cycles
    print()
    print(f"  shift-in {cycles.shift_in} + compute {cycles.compute} + "
          f"shift-out {cycles.shift_out} = {cycles.total} cycles "
          f"for 64 pixels on a 4x4 grid")
    assert outcome.pixel_accuracy == 1.0
    # Shift-in must dominate: 64 instruction packets x 8 flits over four
    # column buses, versus 4-flit result packets on the way out.
    assert cycles.shift_in > cycles.shift_out
    assert cycles.shift_in >= 64 * 8 / 4
