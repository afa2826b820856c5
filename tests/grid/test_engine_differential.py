"""Differential suite pinning the event-driven grid to the dense oracle.

The event-driven :class:`~repro.grid.grid.NanoBoxGrid` claims *bit
identity* with :class:`~tests.grid.dense_oracle.DenseGrid`, which does
per-cell work every cycle: for equal construction parameters and seeds,
every observable -- watchdog transitions, heartbeat scores and beat
counts, delivery statistics, memory images, bus statistics,
dropped-packet sequences -- must match tick for tick.  These tests drive
both through identical scenarios and compare full
:class:`~repro.grid.engine.GridState` snapshots, across all three
temporal fault kinds, persistent memory upsets, link faults, load
shedding, and a matrix of seeds and grid sizes.
"""

import random
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.faults.mask import ExactFractionMask
from repro.faults.temporal import TemporalFaultProcess
from repro.grid import (
    ControlProcessor,
    GridSimulator,
    GridState,
    LifecyclePolicy,
    LinkFaultConfig,
    NanoBoxGrid,
    TemporalScheduler,
    Watchdog,
)
from tests.grid.dense_oracle import ENGINES, DenseGrid, dense_engine
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import hue_shift, reverse_video

REPO_ROOT = Path(__file__).resolve().parents[2]


def workload(n, seed=0):
    rnd = random.Random(seed)
    return [
        (
            i,
            rnd.choice([0b000, 0b001, 0b010, 0b111]),
            rnd.randrange(256),
            rnd.randrange(256),
        )
        for i in range(n)
    ]


def snapshots(sim_kwargs, run):
    """Run the same scenario on the oracle, then the grid; return states."""
    states = []
    for engine in (dense_engine, nullcontext):
        with engine():
            sim = GridSimulator(**sim_kwargs)
        observed = run(sim)
        states.append(
            (GridState.from_grid(sim.grid, sim.watchdog), observed)
        )
    return states


def assert_identical(sim_kwargs, run):
    (oracle_state, oracle_obs), (state, obs) = snapshots(sim_kwargs, run)
    assert oracle_state == state, "\n".join(oracle_state.diff(state)[:20])
    assert oracle_obs == obs


def first_onset(process, seed, coord, horizon=200):
    """Cycle of a cell's first fault event, by the per-cell stream."""
    stream = process.attach(coord, seed)
    for cycle in range(1, horizon + 1):
        if not stream.sample().quiet:
            return cycle
    return None


def idle_soak(sim):
    """Age an idle fabric with periodic canary probe rounds."""
    for _ in range(5):
        sim.control.tick(30)
        sim.watchdog.probe_quarantined()
    return sim.stats()


#: Idle 6x6 fabric with quarantine and re-admission.
IDLE = dict(
    rows=6,
    cols=6,
    heartbeat_decay=0.5,
    error_threshold=3,
    lifecycle_policy=LifecyclePolicy(suspect_polls=1, probing=True),
)

#: Every cell quiet for its first 64-cycle scan falls due for a rescan
#: on tick 64, so that tick is one batched scan over many cells.
RESCAN_TICK = 64


@pytest.mark.usefixtures("kernel_provider")
class TestTemporalFaultKinds:
    """Grid == oracle under each temporal fault taxonomy class, with the
    native tape scan live and dead."""

    @pytest.mark.parametrize(
        "process",
        [
            TemporalFaultProcess.transient(0.002, errors_per_cycle=2),
            TemporalFaultProcess.intermittent(0.001, burst_length=5),
            TemporalFaultProcess.stuck_at(0.0008),
        ],
        ids=["transient", "intermittent", "permanent"],
    )
    @pytest.mark.parametrize("seed", [0, 2004])
    def test_job_under_faults(self, process, seed):
        kwargs = dict(
            rows=6,
            cols=6,
            temporal_fault_process=process,
            heartbeat_decay=0.5,
            error_threshold=3,
            lifecycle_policy=LifecyclePolicy(suspect_polls=1, probing=True),
            seed=seed,
        )

        def run(sim):
            job = sim.run_instructions(workload(180, seed), max_rounds=3)
            return (job.results, job.delivery, job.rounds, sim.stats())

        assert_identical(kwargs, run)

    def test_multi_job_series_keeps_identity(self):
        """Identity survives job boundaries (probe rounds, re-admission)."""
        kwargs = dict(
            rows=5,
            cols=5,
            temporal_fault_process=TemporalFaultProcess.intermittent(
                0.003, burst_length=4, errors_per_cycle=3
            ),
            heartbeat_decay=1.0,
            error_threshold=2,
            lifecycle_policy=LifecyclePolicy(
                suspect_polls=2, probing=True, readmit_clean_probes=1
            ),
            seed=7,
        )

        def run(sim):
            observed = []
            for j in range(4):
                job = sim.run_instructions(
                    workload(60, j), max_rounds=2, shed_to_capacity=True
                )
                observed.append((job.results, job.delivery))
            return (observed, sim.stats())

        assert_identical(kwargs, run)


    @pytest.mark.parametrize("rate", [0.0, 0.9])
    def test_edge_rates(self, rate):
        process = TemporalFaultProcess.transient(rate)
        assert_identical(
            dict(IDLE, temporal_fault_process=process, seed=3), idle_soak
        )

    def test_burst_straddling_a_rescan(self):
        """Bursts that start on or just before the batched rescan tick
        run on past it, while the quiet cells rescan beside them."""
        process = TemporalFaultProcess.intermittent(
            0.01, burst_length=8, errors_per_cycle=2
        )
        onsets = [
            first_onset(process, 4, (r, c)) for r in range(6) for c in range(6)
        ]
        straddling = [
            c for c in onsets
            if c is not None and c <= RESCAN_TICK < c + process.burst_length
        ]
        assert RESCAN_TICK in straddling
        assert sum(c is None or c > RESCAN_TICK for c in onsets) >= 5
        assert_identical(
            dict(IDLE, temporal_fault_process=process, seed=4), idle_soak
        )

    def test_stuck_at_kill_inside_the_batched_tick(self):
        process = TemporalFaultProcess.stuck_at(0.01)
        onsets = [
            first_onset(process, 4, (r, c)) for r in range(6) for c in range(6)
        ]
        assert RESCAN_TICK in onsets
        assert sum(c is None or c > RESCAN_TICK for c in onsets) >= 5

        def run(sim):
            sim.control.tick(RESCAN_TICK - 1)
            before = sim.stats()
            sim.control.tick(1)
            return before, idle_soak(sim)

        assert_identical(
            dict(IDLE, temporal_fault_process=process, seed=4), run
        )

    def test_quarantine_wave_suspends_pending_entries(self):
        """A rolling wave quarantines cells with events and rescans still
        pending; probes re-admit them and the entries resume on the same
        alive-cycle the per-cell sampler reaches."""
        process = TemporalFaultProcess.transient(0.03)

        def run(sim):
            grid = sim.grid

            def wave():
                if grid.cycle % 10 == 0:
                    column = (grid.cycle // 10) % grid.cols
                    for row in range(grid.rows):
                        grid.cell(row, column).heartbeat.record_error(12)

            sim.control.add_tick_hook(wave)
            for _ in range(8):
                sim.control.tick(20)
                sim.watchdog.probe_quarantined()
            return sim.stats()

        assert_identical(
            dict(IDLE, temporal_fault_process=process, seed=8), run
        )

    def test_whole_region_due_on_one_tick_is_one_scan(self, monkeypatch):
        from repro.faults import schedule

        batches = []
        real_scan = schedule._scan

        def recording_scan(pcg, cells, limits, rate):
            batches.append(len(cells))
            return real_scan(pcg, cells, limits, rate)

        monkeypatch.setattr(schedule, "_scan", recording_scan)
        kwargs = dict(
            IDLE, temporal_fault_process=TemporalFaultProcess.transient(0.0)
        )
        sim = GridSimulator(**kwargs)
        assert batches == [36]
        sim.control.tick(RESCAN_TICK - 1)
        assert batches == [36]
        sim.control.tick(1)
        assert batches == [36, 36]

        def run(grid_sim):
            grid_sim.control.tick(RESCAN_TICK)
            return idle_soak(grid_sim)

        assert_identical(kwargs, run)


class TestLinkFaultsAndShedding:
    def test_link_faults_with_crc(self):
        kwargs = dict(
            rows=4,
            cols=4,
            link_fault_config=LinkFaultConfig(
                bit_flip_rate=0.004, drop_rate=0.01, stall_rate=0.02
            ),
            crc_enabled=True,
            seed=11,
        )

        def run(sim):
            job = sim.run_instructions(workload(120, 3), max_rounds=3)
            return (
                job.results,
                job.delivery,
                sim.stats(),
                sim.grid.bus_statistics(),
                sim.grid.link_fault_statistics(),
            )

        assert_identical(kwargs, run)

    def test_link_faults_without_crc(self):
        kwargs = dict(
            rows=4,
            cols=4,
            link_fault_config=LinkFaultConfig(
                bit_flip_rate=0.01, drop_rate=0.005, stall_rate=0.0
            ),
            crc_enabled=False,
            seed=4,
        )

        def run(sim):
            job = sim.run_instructions(workload(100, 9), max_rounds=2)
            return (job.results, job.delivery, sim.stats())

        assert_identical(kwargs, run)

    def test_load_shedding_on_shrunken_fleet(self):
        """shed_to_capacity with mid-run deaths: capacity math must agree."""
        kwargs = dict(
            rows=4,
            cols=4,
            n_words=4,
            kill_schedule={15: [(2, 1), (3, 3)], 60: [(0, 0)]},
            seed=21,
        )

        def run(sim):
            job = sim.run_instructions(
                workload(128, 5), max_rounds=3, shed_to_capacity=True
            )
            return (job.results, job.delivery, job.unassigned, sim.stats())

        assert_identical(kwargs, run)

    def test_adaptive_routing_with_dead_columns(self):
        kwargs = dict(
            rows=5,
            cols=5,
            adaptive_routing=True,
            kill_schedule={10: [(4, 2)], 30: [(2, 2), (3, 1)]},
            seed=13,
        )

        def run(sim):
            job = sim.run_instructions(workload(90, 2), max_rounds=3)
            return (job.results, job.delivery, sim.stats())

        assert_identical(kwargs, run)


class TestSizeSeedMatrix:
    """Identity over a matrix of grid sizes and seeds."""

    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (5, 1), (3, 7)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_shapes(self, rows, cols, seed):
        kwargs = dict(
            rows=rows,
            cols=cols,
            temporal_fault_process=TemporalFaultProcess.transient(0.004),
            heartbeat_decay=0.25,
            error_threshold=2,
            seed=seed,
        )

        def run(sim):
            job = sim.run_instructions(
                workload(40, seed), max_rounds=2
            )
            return (
                job.results,
                job.delivery,
                sim.stats(),
                sim.grid.bus_statistics(),
            )

        assert_identical(kwargs, run)

    def test_scrub_and_alu_faults(self):
        kwargs = dict(
            rows=4,
            cols=4,
            alu_fault_policy=ExactFractionMask(0.01),
            scrub_interval=32,
            heartbeat_decay=0.5,
            error_threshold=4,
            seed=6,
        )

        def run(sim):
            job = sim.run_instructions(workload(150, 8), max_rounds=3)
            return (job.results, job.delivery, sim.scrub_corrections)

        assert_identical(kwargs, run)


@pytest.mark.usefixtures("kernel_provider")
class TestMemoryUpsets:
    """Grid == oracle with persistent memory upsets, which draw from one
    RNG shared by every alive cell in row-major order."""

    @pytest.mark.parametrize("job", [reverse_video, hue_shift])
    @pytest.mark.parametrize("scrub_interval", [0, 64])
    @pytest.mark.parametrize("salvageable", [True, False])
    def test_image_job(self, job, scrub_interval, salvageable):
        kwargs = dict(
            rows=6,
            cols=6,
            alu_fault_policy=ExactFractionMask(0.01),
            memory_upset_rate=2e-5,
            scrub_interval=scrub_interval,
            kill_schedule={25: [(2, 3)], 60: [(5, 0)]},
            memory_salvageable=salvageable,
            seed=13,
            backend="auto",
        )

        def run(sim):
            outcome = sim.run_image_job(gradient(10, 10), job())
            assert outcome.stats.memory_upsets > 0
            return (
                outcome,
                sim.stats().memory_upsets,
                sim.scrub_corrections,
                [(type(p).__name__, p.instruction_id)
                 for p in sim.grid.dropped_packets],
            )

        assert_identical(kwargs, run)

    def test_upsets_across_a_job_series(self):
        """The shared stream carries over from job to job identically."""
        kwargs = dict(rows=5, cols=4, memory_upset_rate=1e-4, seed=3)

        def run(sim):
            return [
                sim.run_instructions(workload(60, k), max_rounds=2).results
                for k in range(3)
            ] + [sim.stats()]

        assert_identical(kwargs, run)

    def test_auto_is_the_one_engine(self):
        sim = GridSimulator(4, 4, memory_upset_rate=1e-6, grid_engine="auto")
        assert type(sim.grid) is NanoBoxGrid
        assert not hasattr(sim, "grid_engine")

    @pytest.mark.parametrize("engine", ["dense", "sparse", "bogus"])
    def test_other_engines_are_rejected_naming_the_oracle(self, engine):
        with pytest.raises(ValueError, match="tests/grid/dense_oracle.py"):
            GridSimulator(4, 4, grid_engine=engine)

    def test_upset_run_is_silent(self, capfd):
        sim = GridSimulator(4, 4, memory_upset_rate=1e-6)
        sim.run_image_job(gradient(4, 4), reverse_video())
        assert capfd.readouterr().err == ""

    def test_oracle_swap_builds_the_dense_pieces(self):
        process = TemporalFaultProcess.transient(0.01)
        with dense_engine():
            sim = GridSimulator(3, 3, temporal_fault_process=process)
        assert type(sim.grid) is DenseGrid
        assert not isinstance(
            sim._injector._temporal_scheduler, TemporalScheduler
        )
        after = GridSimulator(3, 3, temporal_fault_process=process)
        assert type(after.grid) is NanoBoxGrid


class TestWatchdogTransitionTrace:
    """Watchdog lifecycle transitions match poll for poll, not just at end."""

    def test_state_trace_matches(self):
        process = TemporalFaultProcess.intermittent(
            0.004, burst_length=6, errors_per_cycle=2
        )
        traces = []
        for grid_cls in (DenseGrid, NanoBoxGrid):
            grid = grid_cls(4, 4, heartbeat_decay=1.0, error_threshold=2)
            watchdog = Watchdog(
                grid,
                policy=LifecyclePolicy(
                    suspect_polls=1, probing=True, readmit_clean_probes=1
                ),
            )
            streams = {
                coord: process.attach(coord, 99)
                for coord in grid.all_coords()
            }
            trace = []
            for t in range(400):
                grid.step()
                for coord in sorted(streams):
                    if not grid._cell_alive(coord):
                        continue
                    event = streams[coord].sample()
                    if event.quiet:
                        continue
                    if event.kill:
                        grid.kill_cell(*coord)
                    elif event.errors:
                        grid.cell(*coord).heartbeat.record_error(
                            event.errors
                        )
                watchdog.poll()
                if t % 25 == 0:
                    watchdog.probe_quarantined()
                trace.append(
                    tuple(
                        watchdog.state(c).value for c in grid.all_coords()
                    )
                )
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_per_tick_grid_state(self):
        """Full GridState equality sampled mid-run, not only at the end."""
        process = TemporalFaultProcess.transient(0.01, errors_per_cycle=3)
        samples = [[], []]
        for slot, grid_cls in enumerate((DenseGrid, NanoBoxGrid)):
            grid = grid_cls(3, 3, heartbeat_decay=0.5, error_threshold=2)
            watchdog = Watchdog(grid)
            streams = {
                coord: process.attach(coord, 5)
                for coord in grid.all_coords()
            }
            for t in range(120):
                grid.step()
                for coord in sorted(streams):
                    if not grid._cell_alive(coord):
                        continue
                    event = streams[coord].sample()
                    if event.quiet:
                        continue
                    if event.errors:
                        grid.cell(*coord).heartbeat.record_error(
                            event.errors
                        )
                watchdog.poll()
                if t % 10 == 0:
                    samples[slot].append(
                        GridState.from_grid(grid, watchdog).to_snapshot()
                    )
        assert samples[0] == samples[1]


class TestControlProcessorPath:
    """Raw ControlProcessor driving (no simulator hooks) stays identical."""

    def test_full_job_with_decay_and_kills(self):
        results = []
        for grid_cls in (DenseGrid, NanoBoxGrid):
            grid = grid_cls(6, 6, heartbeat_decay=0.5, error_threshold=4)
            watchdog = Watchdog(
                grid, policy=LifecyclePolicy(suspect_polls=2, probing=True)
            )
            control = ControlProcessor(grid, watchdog)
            kills = {30: (2, 3), 55: (5, 1), 90: (0, 0)}
            errors = {40: (4, 4), 41: (4, 4), 60: (1, 2)}

            def hook(grid=grid):
                cycle = grid.cycle
                if cycle in kills:
                    grid.kill_cell(*kills[cycle])
                if cycle in errors:
                    r, c = errors[cycle]
                    if grid.cell(r, c).alive:
                        grid.cell(r, c).heartbeat.record_error(3)

            control.add_tick_hook(hook)
            job = control.run_job(workload(200, 7), max_rounds=3)
            results.append(
                (
                    GridState.from_grid(grid, watchdog).to_snapshot(),
                    job.results,
                    job.delivery,
                    grid.bus_statistics(),
                )
            )
        assert results[0] == results[1]


class TestOwedBeatsThroughAccessors:
    """A quiescent cell's skipped beats are paid before it is handed out,
    so the public accessors read the oracle's beat counts."""

    @ENGINES
    def test_cell(self, engine):
        with engine():
            sim = GridSimulator(4, 4, seed=1)
        sim.grid.cell(2, 2)
        sim.control.tick(10)
        assert sim.grid.cell(2, 2).heartbeat.beats_emitted == 10

    @ENGINES
    def test_cells(self, engine):
        with engine():
            sim = GridSimulator(4, 4, seed=1)
        sim.grid.cell(2, 2)
        sim.control.tick(10)
        beats = {
            cell.cell_id: cell.heartbeat.beats_emitted
            for cell in sim.grid.cells()
        }
        assert beats[(2, 2)] == 10
        assert set(beats.values()) == {10}


class TestCliStdout:
    """CLI stdout is byte-identical to the CLI run on the dense oracle."""

    def _run(self, module, *argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    @pytest.mark.parametrize(
        "argv",
        [
            (
                "grid", "--rows", "5", "--cols", "5", "--fault-percent",
                "1", "--kill", "2,3@40", "--seed", "5",
            ),
            (
                "lifecycle", "--rows", "4", "--cols", "4", "--jobs", "2",
                "--instructions", "48",
            ),
            ("chaos", "--rates", "0", "1e-3", "--rounds", "1", "3"),
        ],
        ids=["grid", "lifecycle", "chaos"],
    )
    def test_stdout_identical(self, argv):
        oracle = self._run("tests.grid.dense_oracle", *argv)
        grid = self._run("repro.cli", *argv)
        assert oracle.returncode == 0, oracle.stderr
        assert grid.returncode == 0, grid.stderr
        assert oracle.stdout == grid.stdout
