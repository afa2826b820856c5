"""The grid's batched compute tick, pinned to the one-cell oracle.

:class:`~repro.grid.grid.NanoBoxGrid` runs one compute tick as one
lock-step batch: every active cell prepares its word and draws its
copies' masks, the rows of all cells evaluate together (one kernel call
per shared :class:`~repro.kernels.AcceleratedUnit`, scalar ``compute``
for any other unit), and every cell then finishes in order.  The dense
oracle (:class:`~tests.grid.dense_oracle.DenseGrid`) steps each cell by
itself through ``ProcessorCell.compute_step``, the one-cell case, on the
plain scalar unit.  Each scenario runs both and compares the full
:class:`~repro.grid.engine.GridState`, the job outcome and every cell's
mask-stream generator state.
"""

import itertools
import random
from contextlib import nullcontext

import numpy as np
import pytest

from repro.alu.nanobox import NanoBoxALU
from repro.cell.aluctrl import ALUControl
from repro.cell.cell import ProcessorCell
from repro.cell.lutctrl import LUTFieldVoter
from repro.cell.memword import MEMORY_WORD_BITS, MemoryWord
from repro.faults.mask import ExactFractionMask
from repro.faults.temporal import TemporalFaultProcess
from repro.grid import (
    ControlProcessor,
    GridSimulator,
    GridState,
    LifecyclePolicy,
    Watchdog,
)
from repro.grid import grid as grid_module
from repro.grid.grid import NanoBoxGrid
from repro.grid.simulator import MaskStream
from repro.kernels import AcceleratedUnit, accelerate_unit, build_plan
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import hue_shift, reverse_video
from tests.grid.dense_oracle import DenseGrid, dense_engine
from tests.grid.test_engine_differential import workload


def fresh_state(entropy):
    return np.random.default_rng(
        np.random.SeedSequence(list(entropy))
    ).bit_generator.state


def mask_states(grid, seed):
    """Every cell's ALU mask-stream state; unbuilt cells never drew."""
    states = {coord: fresh_state((seed, *coord)) for coord in grid.all_coords()}
    for cell in grid.cells():
        states[cell.cell_id] = cell.aluctrl.mask_source.rng.bit_generator.state
    return states


def run_pair(kwargs, run=None):
    """The scenario on the scalar oracle, then on the batched grid."""
    run = run or (lambda sim: sim.run_image_job(gradient(8, 8), reverse_video()))
    results = []
    for engine, backend in ((dense_engine, None), (nullcontext, "auto")):
        with engine():
            sim = GridSimulator(**kwargs, backend=backend)
        outcome = run(sim)
        results.append((
            GridState.from_grid(sim.grid, sim.watchdog),
            outcome,
            mask_states(sim.grid, kwargs.get("seed", 0)),
            sim,
        ))
    return results


def assert_pair_identical(kwargs, run=None):
    (oracle_state, oracle_out, oracle_masks, oracle), (
        state, out, masks, sim
    ) = run_pair(kwargs, run)
    assert type(oracle.grid) is DenseGrid and type(sim.grid) is NanoBoxGrid
    assert oracle_state == state, "\n".join(oracle_state.diff(state)[:20])
    assert oracle_out == out
    assert oracle_masks == masks
    return oracle, sim


@pytest.mark.parametrize("fraction", [0.005, 0.01, 0.05])
def test_alu_faults(fraction):
    oracle, sim = assert_pair_identical(dict(
        rows=6, cols=6, alu_fault_policy=ExactFractionMask(fraction),
        kill_schedule={40: [(2, 3)]}, seed=5,
    ))
    assert sum(cell.aluctrl.computed_total for cell in sim.grid.cells()) >= 64
    if fraction == 0.05:
        assert any(cell.aluctrl.disagreements for cell in sim.grid.cells())


def test_one_kernel_call_per_compute_tick(monkeypatch):
    sim = GridSimulator(
        6, 6, alu_fault_policy=ExactFractionMask(0.01), seed=3, backend="auto"
    )
    unit = sim.grid.cell(0, 0).aluctrl.alu
    if not isinstance(unit, AcceleratedUnit):
        pytest.skip("no compiled engine: the grid computes on the scalar unit")
    rows = []
    values_words = unit.engine.values_words

    def counting(ops, a, b, words):
        rows.append(len(ops))
        return values_words(ops, a, b, words)

    monkeypatch.setattr(unit.engine, "values_words", counting)
    outcome = sim.run_image_job(gradient(8, 8), reverse_video())
    computed = sum(cell.aluctrl.computed_total for cell in sim.grid.cells())
    assert outcome.job.complete and computed == 64
    assert sum(rows) == 3 * computed
    assert len(rows) <= outcome.job.cycles.compute
    assert max(rows) == 3 * 36  # every cell's first word in one call


@pytest.mark.parametrize("rate", [3e-4, 2e-3])
def test_memory_upsets(rate):
    assert_pair_identical(dict(
        rows=5, cols=5, alu_fault_policy=ExactFractionMask(0.01),
        memory_upset_rate=rate, scrub_interval=16, seed=11,
    ))


def test_corrupted_opcode_is_rejected_mid_tick():
    """An upset pushes one pending word's opcode outside the ISA just
    before compute; its cell rejects it while the others compute."""
    victim = (4, 1)

    def run(sim):
        def corrupt():
            if sim.grid.mode.value != "compute":
                return
            memory = sim.grid.cell(*victim).memory
            for index in list(memory.pending_words()):
                raw = memory.read_raw(index)
                memory.write_raw(index, raw & ~(0b111 << 16) | (0b011 << 16))

        sim.control.add_tick_hook(corrupt)
        outcome = sim.run_image_job(gradient(8, 8), hue_shift())
        return outcome, sim.grid.cell(*victim).heartbeat.error_count

    oracle, sim = assert_pair_identical(
        dict(rows=5, cols=5, alu_fault_policy=ExactFractionMask(0.01), seed=2),
        run,
    )
    assert sim.grid.cell(*victim).heartbeat.error_count >= 1


def test_copy_disagreement_silences_a_cell_mid_tick():
    """A cell silenced by its own disagreement in one tick computes no
    more while the watchdog's suspect grace leaves it words to compute."""
    oracle, sim = assert_pair_identical(dict(
        rows=4, cols=4, alu_fault_policy=ExactFractionMask(0.05),
        error_threshold=0, lifecycle_policy=LifecyclePolicy(suspect_polls=8),
        seed=8,
    ))
    assert sim.stats().failed_cells


def test_heartbeat_decay_with_a_temporal_process():
    def run(sim):
        return sim.run_instructions(workload(60, seed=4), max_rounds=4)

    assert_pair_identical(dict(
        rows=5, cols=5, alu_fault_policy=ExactFractionMask(0.01),
        heartbeat_decay=0.5, error_threshold=2,
        lifecycle_policy=LifecyclePolicy(probing=True),
        temporal_fault_process=TemporalFaultProcess.intermittent(
            0.01, 4, errors_per_cycle=2
        ),
        seed=21,
    ), run)


def test_field_voter(monkeypatch):
    """Cells whose flags are voted through a fault-prone LUT voter."""
    voter = LUTFieldVoter("none")

    class VotedCell(ProcessorCell):
        def __init__(self, row, col, alu, mask_source, **kwargs):
            super().__init__(row, col, alu, mask_source=mask_source, **kwargs)
            self.aluctrl = ALUControl(
                self.memory, alu, mask_source,
                field_voter=voter,
                control_mask_source=MaskStream(
                    ExactFractionMask(0.05), voter.site_count, (9, row, col)
                ),
            )

    monkeypatch.setattr(grid_module, "ProcessorCell", VotedCell)
    oracle, sim = assert_pair_identical(dict(
        rows=5, cols=5, alu_fault_policy=ExactFractionMask(0.01), seed=9,
    ))
    assert any(cell.aluctrl.control_misreads for cell in sim.grid.cells())


def test_mixed_units_from_alu_factory():
    """Cells holding three unit objects of one design: two accelerated
    (separate engines) and one plain.  The grid batches each shared
    accelerated unit and runs the plain one's rows scalar."""

    def mixed_factory():
        designs = [NanoBoxALU(scheme="tmr") for _ in range(3)]
        for design in designs:
            design.site_space.freeze()
        units = [
            accelerate_unit(designs[0], "auto"),
            designs[1],
            accelerate_unit(designs[2], "auto"),
        ]
        counter = itertools.count()
        return lambda: units[next(counter) % len(units)]

    sites = NanoBoxALU(scheme="tmr").site_count
    policy = ExactFractionMask(0.01)
    outcomes = []
    for grid_cls in (DenseGrid, NanoBoxGrid):
        grid = grid_cls(
            6, 6, alu_factory=mixed_factory(),
            mask_source_factory=lambda coord: MaskStream(
                policy, sites, (13, *coord)
            ),
        )
        watchdog = Watchdog(grid)
        job = ControlProcessor(grid, watchdog=watchdog).run_job(
            workload(80, seed=13)
        )
        outcomes.append(
            (GridState.from_grid(grid, watchdog), job, mask_states(grid, 13))
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][1].complete


def test_unit_with_no_plan():
    assert build_plan(NanoBoxALU(scheme="parity")) is None
    oracle, sim = assert_pair_identical(dict(
        rows=4, cols=4, alu_scheme="parity",
        alu_fault_policy=ExactFractionMask(0.01), seed=6,
    ))
    assert not isinstance(sim.grid.cell(0, 0).aluctrl.alu, AcceleratedUnit)


def test_flags_match_unpack_over_every_flag_pattern():
    rnd = random.Random(2004)
    payload_bits = MEMORY_WORD_BITS - 6
    for pattern in range(64):
        for _ in range(20):
            raw = (pattern << payload_bits) | rnd.getrandbits(payload_bits)
            word = MemoryWord.unpack(raw)
            assert MemoryWord.flags(raw) == (
                word.data_valid, word.to_be_computed
            )
