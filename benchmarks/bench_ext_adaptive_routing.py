"""Extension (paper §§6.2/7): rerouting around faulty cells.

Teramac and Phoenix -- the external-reconfiguration systems the paper
compares against -- reroute connections around faulty blocks; the paper
defers the NanoBox equivalent ("how the control microprocessor should
reroute data assigned to a failed processor cell") to future work.  This
bench kills a *top-row* cell, which under the deterministic five-case
rule strands its entire column, and measures how much capacity the
fault-adaptive routing policy recovers.
"""

from benchmarks.conftest import scaled
from repro.grid.simulator import GridSimulator
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import reverse_video

KILL = {10: [(3, 1)]}  # top-row cell of a 4x4 grid dies almost immediately

#: Image size: 64 pixels normally, 32 under smoke (kill still lands
#: mid-job -- shift-in alone takes 32 * 8 / 4 = 64 cycles).
SIZE = scaled((8, 8), (8, 4))


def run(adaptive: bool):
    sim = GridSimulator(
        rows=4, cols=4, seed=17, kill_schedule=dict(KILL),
        adaptive_routing=adaptive,
    )
    outcome = sim.run_image_job(gradient(*SIZE), reverse_video(), max_rounds=3)
    reachable = sum(
        sim.grid.reachable(r, c) for r in range(4) for c in range(4)
    )
    return outcome, reachable


def test_bench_adaptive_routing():
    (adaptive_outcome, adaptive_reach) = run(True)
    deterministic_outcome, deterministic_reach = run(False)

    print()
    print(f"  reachable cells after top-row kill: deterministic "
          f"{deterministic_reach}/16, adaptive {adaptive_reach}/16")
    print(f"  pixel accuracy: deterministic "
          f"{deterministic_outcome.pixel_accuracy:.3f} "
          f"({deterministic_outcome.stats.cycles} cycles), adaptive "
          f"{adaptive_outcome.pixel_accuracy:.3f} "
          f"({adaptive_outcome.stats.cycles} cycles)")

    # Both recover full accuracy (the retry protocol reassigns work),
    # but only the adaptive fabric keeps the dead cell's column usable.
    assert adaptive_outcome.pixel_accuracy == 1.0
    assert deterministic_outcome.pixel_accuracy == 1.0
    assert adaptive_reach == 15          # all survivors reachable
    assert deterministic_reach == 12     # the dead cell's column stranded
