"""A finished simulator is freed by reference counting alone.

Nothing a :class:`~repro.grid.simulator.GridSimulator` owns points back
at it, and nothing a grid owns points back at the grid: cell callbacks
and lazy component dicts hold the grid weakly, the control processor's
tick hooks belong to the simulator's fault injector, and the temporal
scheduler's alive listener holds the scheduler weakly.  These tests run
with the cyclic garbage collector off, so an object that survives its
last reference here is held in a reference cycle.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.alu.nanobox import NanoBoxALU
from repro.cell.cell import CellMode
from repro.cell.memword import MemoryWord
from repro.experiments import fleet
from repro.experiments.fleet import run_fleet_region, shard_fleet
from repro.faults.mask import ExactFractionMask
from repro.faults.temporal import TemporalFaultProcess
from repro.grid import GridSimulator
from repro.kernels import build_engine, get_provider
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import reverse_video


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def image_simulator():
    return GridSimulator(
        6, 6,
        alu_fault_policy=ExactFractionMask(0.01),
        memory_upset_rate=1e-4,
        scrub_interval=16,
        kill_schedule={30: [(2, 3)]},
        seed=3,
        backend="auto",
    )


def test_simulator_after_an_image_job_frees_on_del(no_gc):
    sim = image_simulator()
    outcome = sim.run_image_job(gradient(8, 8), reverse_video())
    assert outcome.stats.failed_cells == ((2, 3),)
    sim_ref, grid_ref = weakref.ref(sim), weakref.ref(sim.grid)
    del sim
    assert sim_ref() is None
    assert grid_ref() is None


def test_control_processor_keeps_working_without_the_simulator(no_gc):
    sim = image_simulator()
    control, grid_ref = sim.control, weakref.ref(sim.grid)
    del sim
    job = control.run_job([(0, 0b111, 3, 4), (1, 0b010, 5, 6)])
    assert job.results == {0: 7, 1: 3}
    del control
    assert grid_ref() is None


def test_fleet_region_with_a_temporal_process_frees(no_gc, monkeypatch):
    refs = []

    class Recorded(GridSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append((weakref.ref(self), weakref.ref(self.grid)))

    monkeypatch.setattr(fleet, "GridSimulator", Recorded)
    (region,) = shard_fleet(8, 8, regions=1, seed=4)
    outcome = run_fleet_region(
        region,
        ticks=60,
        process=TemporalFaultProcess.transient(0.01, errors_per_cycle=3),
        wave_period=10,
        probe_interval=20,
    )
    assert outcome.fault_events and outcome.quarantines
    assert refs and all(ref() is None for pair in refs for ref in pair)


def test_cell_outliving_its_grid_is_still_writable(no_gc):
    sim = image_simulator()
    sim.run_image_job(gradient(8, 8), reverse_video())
    cell = sim.grid.cell(0, 0)
    grid_ref = weakref.ref(sim.grid)
    del sim
    assert grid_ref() is None
    word = MemoryWord(7, 0b111, 1, 2, data_valid=True, to_be_computed=True)
    cell.memory.write(0, word)
    cell.set_mode(CellMode.COMPUTE)
    assert cell.compute_step()
    cell.heartbeat.record_error(20)
    cell.heartbeat.silence()
    assert cell.memory.read(0).result == 3
    assert not cell.alive


def test_kernel_entry_points_leave_no_cyclic_garbage(no_gc):
    provider = get_provider()
    if provider is None:
        pytest.skip("no C kernel provider")
    engine = build_engine(NanoBoxALU(scheme="tmr"), "compiled")
    ops = np.array([0b111, 0b000], dtype=np.int64)
    words = np.zeros((2, engine.n_words), dtype=np.uint64)
    policy, rng = ExactFractionMask(0.05), np.random.default_rng(1)
    gc.collect()
    engine.values_words(ops, ops, ops, words)
    if provider.mask_fn is not None:
        policy.native_batch(provider.mask_fn, 300, 4, rng)
    if provider.tape_fn is not None:
        pcg = np.zeros((3, 4), dtype=np.uint64)
        provider.tape_fn(pcg, np.arange(3), np.full(3, 8), 0.5)
    assert gc.collect() == 0
