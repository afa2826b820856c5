"""Extension: endurance -- back-to-back jobs on an aging fabric.

Single-job accuracy hides a deployment reality: memory upsets accumulate
across jobs, heartbeat error tallies only ever grow, and the watchdog's
harvest is monotone.  This bench runs a sequence of image jobs on one
grid under continuous memory upsets and transient ALU faults, with and
without periodic scrubbing, tracking accuracy and surviving cells over
the sequence.
"""

from benchmarks.conftest import SMOKE, scaled
from repro.experiments.fleet import run_fleet_soak
from repro.faults.mask import ExactFractionMask
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.simulator import GridSimulator
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import hue_shift, reverse_video

JOBS = scaled(6, 3)
UPSET_RATE = 5e-5


def run_sequence(scrub_interval: int):
    sim = GridSimulator(
        rows=3,
        cols=3,
        alu_scheme="tmr",
        alu_fault_policy=ExactFractionMask(0.005),
        memory_upset_rate=UPSET_RATE,
        scrub_interval=scrub_interval,
        error_threshold=24,
        seed=2004,
    )
    accuracies = []
    workloads = [reverse_video(), hue_shift()]
    for job in range(JOBS):
        outcome = sim.run_image_job(
            gradient(8, 8), workloads[job % 2], max_rounds=3
        )
        accuracies.append(outcome.pixel_accuracy)
    return accuracies, len(sim.grid.alive_cells()), sim.scrub_corrections


def test_bench_soak_sequence():
    scrubbed = run_sequence(8)
    plain = run_sequence(0)
    print()
    print(f"  {'job':>4}  {'no scrub':>9}  {'scrub/8':>9}")
    for i in range(JOBS):
        print(f"  {i:>4}  {plain[0][i]:>9.3f}  {scrubbed[0][i]:>9.3f}")
    print(f"  alive after {JOBS} jobs: no-scrub {plain[1]}/9, "
          f"scrubbed {scrubbed[1]}/9; "
          f"{scrubbed[2]} bits repaired by scrubbing")

    # Endurance: mean accuracy with scrubbing must not trail without.
    mean_plain = sum(plain[0]) / JOBS
    mean_scrubbed = sum(scrubbed[0]) / JOBS
    assert mean_scrubbed >= mean_plain - 0.02
    assert scrubbed[2] > 0  # scrubbing actually repaired something
    # Every job in both runs stays above a floor -- no collapse over the
    # sequence (the residual loss comes from the *unprotected* operand
    # and instruction-ID fields, which no amount of scrubbing repairs --
    # the cost of the paper's choice to triplicate only critical fields).
    assert min(plain[0]) >= 0.75
    assert min(scrubbed[0]) >= 0.75


# -- Fleet soak: rolling quarantine/re-admission wave at 10^5-10^6 ----
#
# The event-driven engine's worst realistic case is not an idle fleet
# but one under continuous lifecycle churn: a rolling wave sweeps the
# columns, overwhelming one column's heartbeats every WAVE_PERIOD
# cycles; the watchdog quarantines them and canary probe rounds
# re-admit them.  The fleet is sharded into column-band regions fanned
# out over a process pool (the executor's chunk-merge convention), and
# the fold is deterministic for any worker count.

#: 10^6 cells full; ~10^5 cells under REPRO_BENCH_SMOKE=1.
FLEET_SHAPE = scaled((1000, 1000), (316, 316))
FLEET_REGIONS = scaled(8, 4)
FLEET_JOBS = scaled(4, 2)
FLEET_TICKS = scaled(200, 100)
WAVE_PERIOD = 25
FLEET_PROCESS = TemporalFaultProcess.transient(1e-6, errors_per_cycle=3)


def run_fleet_wave():
    rows, cols = FLEET_SHAPE
    return run_fleet_soak(
        rows,
        cols,
        ticks=FLEET_TICKS,
        regions=FLEET_REGIONS,
        jobs=FLEET_JOBS,
        seed=2004,
        process=FLEET_PROCESS,
        wave_period=WAVE_PERIOD,
        error_threshold=3,
        probe_interval=50,
    )


def test_bench_fleet_wave_soak():
    report = run_fleet_wave()
    rows, cols = FLEET_SHAPE
    print()
    print(f"  fleet {rows}x{cols} ({report.cells} cells), "
          f"{report.regions} regions, {report.cycles} cycles")
    print(f"  quarantines {report.quarantines}, "
          f"readmissions {report.readmissions}, "
          f"retired {report.retired}, "
          f"fault events {report.fault_events}")
    print(f"  availability {report.availability:.4f}")

    # The whole fleet soaked: every region ran every cycle.
    assert report.cells == rows * cols
    assert report.cycles == FLEET_TICKS
    # The wave actually churned the lifecycle: every sweep quarantined
    # a full column per region, and probing won those cells back.
    waves = FLEET_TICKS // WAVE_PERIOD
    assert report.quarantines >= waves * rows
    assert report.readmissions > 0
    # Churn is bounded: the fleet stays overwhelmingly available.
    assert report.availability > 0.9
    if not SMOKE:
        assert report.cells == 10**6