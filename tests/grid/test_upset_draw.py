"""The vectorised memory-upset draw against the per-cell scalar loop.

:func:`~repro.grid.simulator.draw_memory_upsets` draws one tick's upset
counts for every alive cell in one ``binomial`` call and rewinds to
interleave each hit cell's position draw.  The oracle below is the
per-cell loop it replaced: walk the alive cells row-major, draw a
scalar count, and on a hit draw that many distinct bit positions.  Both
must pick the same cells and masks and leave the shared RNG in the same
state, tick for tick.
"""

import numpy as np
import pytest

from repro.cell.memory import memory_layout
from repro.grid import GridSimulator, NanoBoxGrid
from repro.grid.simulator import FaultInjector, draw_memory_upsets
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import reverse_video
from tests.grid.dense_oracle import ENGINES, DenseGrid, dense_engine

N_WORDS = 8
BITS = memory_layout(N_WORDS)[0].total_sites


def scalar_upsets(rng, grid, rate):
    """The per-cell scalar upset loop (dense oracle): apply and return hits."""
    hits = []
    bits_per_cell = None
    for cell in grid.cells():
        if not cell.alive:
            continue
        if bits_per_cell is None:
            bits_per_cell = cell.memory.site_count
        count = int(rng.binomial(bits_per_cell, rate))
        if count == 0:
            continue
        positions = rng.choice(bits_per_cell, size=count, replace=False)
        mask = 0
        for p in positions:
            mask |= 1 << int(p)
        cell.memory.apply_faults(mask)
        r, c = cell.cell_id
        hits.append((r * grid.cols + c, count, mask))
    return hits


def vectorised_upsets(rng, grid, rate):
    """The simulator's draw, applied the way its tick hook applies it."""
    hits = draw_memory_upsets(rng, grid.alive_indices(), BITS, rate)
    for index, _count, mask in hits:
        grid.cell(*divmod(index, grid.cols)).memory.apply_faults(mask)
    return hits


def memory_images(grid):
    return {coord: state["words"] for coord, state in grid.iter_cell_states()}


def run_both(grid_cls, rate, seed, ticks, dead=()):
    oracle_grid = DenseGrid(6, 5, n_words=N_WORDS)
    grid = grid_cls(6, 5, n_words=N_WORDS)
    for g in (oracle_grid, grid):
        for coord in dead:
            g.kill_cell(*coord)
    oracle_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    oracle_ticks, ticks_hit = [], []
    for _ in range(ticks):
        oracle_ticks.append(scalar_upsets(oracle_rng, oracle_grid, rate))
        ticks_hit.append(vectorised_upsets(rng, grid, rate))
    return oracle_ticks, ticks_hit, oracle_rng, rng, oracle_grid, grid


DEAD = ((0, 0), (2, 3), (5, 4), (3, 0))


@pytest.mark.parametrize("grid_cls", [DenseGrid, NanoBoxGrid])
@pytest.mark.parametrize("rate", [1e-6, 1e-5, 1e-4, 1e-3])
@pytest.mark.parametrize("dead", [(), DEAD], ids=["all-alive", "dead-cells"])
@pytest.mark.parametrize("seed", [0, 17])
def test_draw_matches_scalar_loop(grid_cls, rate, dead, seed):
    ticks = 200 if rate < 1e-4 else 40
    oracle, vectorised, oracle_rng, rng, oracle_grid, grid = run_both(
        grid_cls, rate, seed, ticks, dead
    )
    # Same hit cells, upset counts and masks, tick for tick.
    assert vectorised == oracle
    assert memory_images(grid) == memory_images(oracle_grid)
    # The shared stream ends in the same place.
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    dead_indices = {r * 5 + c for r, c in dead}
    assert not any(i in dead_indices for t in vectorised for i, _, _ in t)


def test_high_rate_exercises_several_hits_per_tick():
    oracle, vectorised, *_ = run_both(NanoBoxGrid, 1e-3, 3, 20)
    assert vectorised == oracle
    assert max(len(t) for t in oracle) > 1


@pytest.mark.parametrize("grid_cls", [DenseGrid, NanoBoxGrid])
def test_no_alive_cells_draws_nothing(grid_cls):
    every = [(r, c) for r in range(6) for c in range(5)]
    oracle, vectorised, oracle_rng, rng, *_ = run_both(
        grid_cls, 1e-3, 5, 10, every
    )
    assert oracle == vectorised == [[]] * 10
    assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@ENGINES
def test_simulator_matches_scalar_hook(monkeypatch, engine):
    """A whole image job: the simulator's hook against the scalar loop."""
    kwargs = dict(
        rows=5,
        cols=5,
        n_words=N_WORDS,
        memory_upset_rate=2e-4,
        scrub_interval=16,
        kill_schedule={30: [(1, 2)]},
        seed=11,
    )
    with engine():
        sim = GridSimulator(**kwargs)
    outcome = sim.run_image_job(gradient(6, 6), reverse_video())

    def scalar_hook(self):
        if self._memory_upset_rate <= 0:
            return
        for _, count, _ in scalar_upsets(
            self._rng, self.grid, self._memory_upset_rate
        ):
            self._memory_upsets += count

    monkeypatch.setattr(FaultInjector, "_apply_memory_upsets", scalar_hook)
    with dense_engine():
        oracle = GridSimulator(**kwargs)
    expected = oracle.run_image_job(gradient(6, 6), reverse_video())
    assert outcome.stats.memory_upsets > 0
    assert outcome == expected
    assert memory_images(sim.grid) == memory_images(oracle.grid)
    assert (
        sim._injector._rng.bit_generator.state
        == oracle._injector._rng.bit_generator.state
    )
