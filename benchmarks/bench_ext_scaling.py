"""Extension (paper §6.2): the system-check bottleneck, measured.

The paper's case against external reconfiguration (Teramac, Phoenix) is
that periodic whole-system surveys stop scaling: checking time grows
with block count while the NanoBox's distributed heartbeat checks every
cell every cycle regardless of grid size.  This bench measures both
checkers' failure-detection latency across grid sizes, plus how the
fixed 64-pixel job's cycle budget scales with grid shape.
"""

import time
from contextlib import nullcontext

from benchmarks.conftest import SMOKE, scaled
from repro.experiments.scaling import (
    detection_latency,
    detection_table_text,
    pipeline_scaling,
    pipeline_table_text,
)
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.engine import GridState
from repro.grid.simulator import GridSimulator
from tests.grid.dense_oracle import dense_engine

SIZES = ((2, 2), (4, 4), (8, 8))


def run_detection():
    return detection_latency(sizes=SIZES, trials=scaled(60, 20), seed=2004)


def test_bench_detection_latency():
    points = run_detection()
    print()
    print(detection_table_text(points))
    # Watchdog latency is flat; external latency scales with cell count.
    assert all(p.watchdog_latency == 1.0 for p in points)
    assert points[-1].external_latency > points[0].external_latency * 8
    # 8x8: mean external latency ~ 32 cycles of paused computation.
    assert points[-1].external_latency > 16


def run_pipeline():
    return pipeline_scaling(sizes=((2, 2), (2, 4), (4, 4), (4, 8)), seed=0)


def test_bench_pipeline_scaling():
    points = run_pipeline()
    print()
    print(pipeline_table_text(points))
    by_shape = {(p.rows, p.cols): p for p in points}
    # Doubling the columns roughly halves the shift-in phase (parallel
    # edge buses), the dominant cost.
    assert by_shape[(2, 4)].shift_in < by_shape[(2, 2)].shift_in
    assert by_shape[(4, 8)].shift_in < by_shape[(4, 4)].shift_in


# -- Engine scaling: the event-driven grid versus the dense oracle ----
#
# A mostly-quiescent fabric is the paper's deployment reality (per-cell
# fault rates are tiny), and it is exactly where dense per-cell ticking
# stops scaling: cost per cycle grows with cell count whether or not
# anything happens.  The event-driven grid does per-tick work
# proportional to *activity*, so an idle 10^6-cell fleet advances in O(1)
# per tick.  The common-size point also re-checks bit identity under
# load: the grid and the oracle must land on the same GridState and the
# same fault tally.

#: Largest size both the grid and the oracle run at in reasonable time.
ENGINE_COMMON = scaled((64, 64), (16, 16))
ENGINE_TICKS = scaled(300, 60)
ENGINE_PROCESS = TemporalFaultProcess.transient(1e-5, errors_per_cycle=3)

#: Grid-only fleet points: ~10^5 and 10^6 cells.
FLEET_SIZES = scaled(((316, 316), (1000, 1000)), ((316, 316),))
FLEET_TICKS = 300


def _engine_soak(engine, rows, cols, ticks, process):
    with engine():
        sim = GridSimulator(
            rows=rows,
            cols=cols,
            temporal_fault_process=process,
            heartbeat_decay=0.5,
            error_threshold=3,
            seed=2004,
        )
    start = time.perf_counter()
    sim.control.tick(ticks)
    elapsed = time.perf_counter() - start
    return (
        elapsed,
        GridState.from_grid(sim.grid, sim.watchdog),
        sim.stats(),
        sim.grid.alive_count(),
    )


def run_engine_scaling():
    rows, cols = ENGINE_COMMON
    dense = _engine_soak(dense_engine, rows, cols, ENGINE_TICKS, ENGINE_PROCESS)
    grid = _engine_soak(nullcontext, rows, cols, ENGINE_TICKS, ENGINE_PROCESS)
    fleet = [
        (r, c, _engine_soak(nullcontext, r, c, FLEET_TICKS, None))
        for r, c in FLEET_SIZES
    ]
    return dense, grid, fleet


def test_bench_engine_scaling():
    dense, grid, fleet = run_engine_scaling()
    rows, cols = ENGINE_COMMON
    speedup = dense[0] / grid[0] if grid[0] else float("inf")
    print()
    print(f"  {'cells':>9}  {'engine':>7}  {'ticks':>6}  {'seconds':>8}")
    print(f"  {rows * cols:>9}  {'dense':>7}  {ENGINE_TICKS:>6}  "
          f"{dense[0]:>8.3f}")
    print(f"  {rows * cols:>9}  {'grid':>7}  {ENGINE_TICKS:>6}  "
          f"{grid[0]:>8.3f}  ({speedup:.0f}x)")
    for r, c, (elapsed, _, _, alive) in fleet:
        print(f"  {r * c:>9}  {'grid':>7}  {FLEET_TICKS:>6}  "
              f"{elapsed:>8.3f}  (alive {alive})")

    # Bit identity under load at the largest common size.
    assert dense[1] == grid[1], "\n".join(dense[1].diff(grid[1])[:10])
    assert dense[2] == grid[2]
    # The event-driven grid must beat dense by >= 10x at the largest
    # common size (smoke sizes are too small for the ratio to be
    # meaningful, so the floor is full-run only).
    if not SMOKE:
        assert speedup >= 10, f"event-driven speedup only {speedup:.1f}x"
    # Idle fleets advance in activity-proportional time: the 10^5/10^6
    # points must finish far faster than the *busy* common grid, despite
    # having 25-250x the cells.
    for r, c, (elapsed, _, _, alive) in fleet:
        assert alive == r * c
        assert elapsed < max(dense[0], 1.0)
