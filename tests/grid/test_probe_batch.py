"""Batched canary probe rounds and the shared per-design cell layout.

A probe round works out every quarantined cell's verdict in one
canary-major batch on the design's engine.  These tests hold it to an
independent per-cell scalar oracle -- each cell's mask stream rebuilt
from the documented seeding contract, the canaries run one by one with
``all()``'s short circuit -- and count the masks every cell draws.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.alu.nanobox import NanoBoxALU
from repro.alu.reference import reference_compute
from repro.cell import aluctrl
from repro.cell.memory import memory_layout
from repro.cell.memword import MEMORY_WORD_BITS, MemoryWord
from repro.faults.mask import ExactFractionMask
from repro.faults.sites import SiteSpace
from repro.grid.grid import NanoBoxGrid, _default_alu_factory
from repro.grid.simulator import GridSimulator
from repro.grid.watchdog import (
    PROBE_CANARIES,
    CellState,
    LifecyclePolicy,
    ProbeReport,
    Watchdog,
)
from repro.obs import Observer, observing
from tests.grid.dense_oracle import ENGINES

ROWS, COLS = 6, 6
SEED = 7
#: High enough that canaries fail: at this rate and seed some cells
#: fail their first canary, some a later one, and some pass all four.
FAULT_RATE = 0.1
#: The cell killed outright (force-silenced: it draws no masks).
KILLED = (2, 3)
#: Probing never re-admits or retires within the two rounds run here,
#: so every report's outcome stays QUARANTINED.
POLICY = LifecyclePolicy(
    probing=True, readmit_clean_probes=3, retire_failed_rounds=3
)
CANARIES = [
    (op, a, b, reference_compute(op, a, b).value)
    for op, a, b in PROBE_CANARIES
]

Coord = Tuple[int, int]


def quarantine_set() -> List[Coord]:
    """Cells the tests overwhelm: a checkerboard plus the killed cell."""
    coords = [
        (r, c) for r in range(ROWS) for c in range(COLS) if (r + c) % 2 == 0
    ]
    return sorted(coords + [KILLED])


class Counting:
    """A mask source wrapper that counts its draws."""

    def __init__(self, source) -> None:
        self._source = source
        self.draws = 0

    def __call__(self) -> int:
        self.draws += 1
        return self._source()


def oracle_source(coord: Coord):
    """The cell's mask stream, rebuilt from the simulator's seeding."""
    rng = np.random.default_rng(np.random.SeedSequence([SEED, *coord]))
    policy = ExactFractionMask(FAULT_RATE)
    sites = NanoBoxALU(scheme="tmr").site_count
    return lambda: policy.generate(sites, rng)


class ScalarOracle:
    """Per-cell, canary-by-canary probes on a private scalar unit."""

    def __init__(self, coords: List[Coord]) -> None:
        self.unit = NanoBoxALU(scheme="tmr")
        self.sources = {coord: oracle_source(coord) for coord in coords}
        self.draws = {coord: 0 for coord in coords}
        self.clean = {coord: 0 for coord in coords}
        self.failed = {coord: 0 for coord in coords}

    def probe(self, coord: Coord) -> bool:
        if coord == KILLED:
            return False
        for op, a, b, expected in CANARIES:
            self.draws[coord] += 1
            mask = self.sources[coord]()
            if self.unit.compute(op, a, b, fault_mask=mask).value != expected:
                return False
        return True

    def round(self, cycle: int) -> List[ProbeReport]:
        reports = []
        for coord in sorted(self.sources):
            passed = self.probe(coord)
            if passed:
                self.clean[coord] += 1
            else:
                self.clean[coord] = 0
                self.failed[coord] += 1
            reports.append(
                ProbeReport(
                    cell=coord,
                    cycle=cycle,
                    passed=passed,
                    clean_streak=self.clean[coord],
                    failed_rounds=self.failed[coord],
                    outcome=CellState.QUARANTINED,
                )
            )
        return reports


def quarantine(grid, watchdog) -> None:
    for coord in quarantine_set():
        if coord == KILLED:
            grid.kill_cell(*coord)
        else:
            grid.cell(*coord).heartbeat.record_error(100)
    watchdog.poll()
    assert watchdog.cells_in_state(CellState.QUARANTINED) == tuple(
        quarantine_set()
    )


def count_draws(grid) -> Dict[Coord, Counting]:
    counters = {}
    for r in range(ROWS):
        for c in range(COLS):
            control = grid.cell(r, c).aluctrl
            counters[(r, c)] = control._mask_source = Counting(
                control._mask_source
            )
    return counters


def assert_matches_oracle(watchdog, counters) -> None:
    oracle = ScalarOracle(quarantine_set())
    first_round_draws = None
    for _ in range(2):
        reports = watchdog.probe_quarantined()
        assert reports == oracle.round(watchdog.grid.cycle)
        draws = {coord: counter.draws for coord, counter in counters.items()}
        assert draws == {
            coord: oracle.draws.get(coord, 0) for coord in counters
        }
        if first_round_draws is None:
            first_round_draws = draws
    # The setup exercises every draw-count case at least once.
    assert first_round_draws[KILLED] == 0
    assert 1 in first_round_draws.values()
    assert len(CANARIES) in first_round_draws.values()
    assert any(1 < n < len(CANARIES) for n in first_round_draws.values())


@pytest.mark.parametrize("backend", [None, "auto"])
@ENGINES
def test_probe_round_matches_scalar_oracle(kernel_provider, engine, backend):
    with engine():
        sim = GridSimulator(
            rows=ROWS,
            cols=COLS,
            alu_fault_policy=ExactFractionMask(FAULT_RATE),
            lifecycle_policy=POLICY,
            seed=SEED,
            backend=backend,
        )
    counters = count_draws(sim.grid)
    quarantine(sim.grid, sim.watchdog)
    assert_matches_oracle(sim.watchdog, counters)
    # The round ran batched: the shared unit has its probe evaluator.
    unit = sim.grid.cell(0, 0).aluctrl.alu
    assert aluctrl._PROBE_EVALUATORS.get(unit) is not None


def test_per_cell_units_probe_on_the_scalar_path(kernel_provider):
    counters: Dict[Coord, Counting] = {}

    def mask_source_factory(coord):
        counters[coord] = Counting(oracle_source(coord))
        return counters[coord]

    units = []

    def alu_factory():
        units.append(NanoBoxALU(scheme="tmr"))
        return units[-1]

    grid = NanoBoxGrid(
        ROWS, COLS, alu_factory=alu_factory,
        mask_source_factory=mask_source_factory,
    )
    watchdog = Watchdog(grid, policy=POLICY)
    quarantine(grid, watchdog)
    assert_matches_oracle(watchdog, counters)
    cells = [grid.cell(*coord) for coord in grid.all_coords()]
    assert len({id(cell.aluctrl.alu) for cell in cells}) == ROWS * COLS
    # No engine was built for a unit held by a single cell.
    assert not any(unit in aluctrl._PROBE_EVALUATORS for unit in units)


def test_single_cell_probe_is_the_batch_of_one():
    cell = GridSimulator(
        rows=2, cols=2, alu_fault_policy=ExactFractionMask(FAULT_RATE),
        seed=SEED,
    ).grid.cell(0, 0)
    oracle = ScalarOracle([(0, 0)])
    for _ in range(8):
        assert cell.probe(CANARIES) == oracle.probe((0, 0))


# ------------------------------------------------------------ shared layout


@ENGINES
def test_cells_share_one_unit_and_one_memory_layout(engine):
    with engine():
        sim = GridSimulator(rows=4, cols=5, n_words=8)
    cells = [sim.grid.cell(r, c) for r in range(4) for c in range(5)]
    assert len({id(cell.aluctrl.alu) for cell in cells}) == 1
    assert len({id(cell.memory.site_space) for cell in cells}) == 1
    assert len({id(cell.memory) for cell in cells}) == len(cells)


def test_default_grid_cells_share_one_unit():
    grid = NanoBoxGrid(3, 3)
    assert {
        id(grid.cell(*coord).aluctrl.alu) for coord in grid.all_coords()
    } == {id(_default_alu_factory())}


def test_memory_writes_stay_in_their_own_cell():
    sim = GridSimulator(rows=2, cols=2, n_words=4)
    first, second = sim.grid.cell(0, 0), sim.grid.cell(1, 1)
    first.store_instruction(5, 0b111, 3, 4)
    first.memory.apply_faults(1 << 3)
    assert first.memory.occupancy() == 1
    assert [second.memory.read_raw(i) for i in range(4)] == [0] * 4
    assert second.memory.free_slot() == 0


def test_shared_memory_segments_equal_a_fresh_layout():
    space, segments = memory_layout(32)
    fresh = SiteSpace("cell_memory")
    for i in range(32):
        fresh.add(f"word{i}", MEMORY_WORD_BITS)
    assert segments == fresh.segments == space.segments
    assert space.total_sites == fresh.total_sites == 32 * MEMORY_WORD_BITS


def test_shared_site_spaces_cannot_grow():
    sim = GridSimulator(rows=2, cols=2)
    cell = sim.grid.cell(0, 0)
    fresh = SiteSpace()
    fresh.add("bit", 1)
    for space in (cell.memory.site_space, cell.aluctrl.alu.site_space):
        before = space.total_sites
        with pytest.raises(RuntimeError, match="frozen"):
            space.add("extra", 1)
        with pytest.raises(RuntimeError, match="frozen"):
            space.add_space("extra", fresh)
        assert space.total_sites == before
    # The memory round-trips through the frozen layout unchanged.
    word = MemoryWord(1, 0b111, 2, 3, data_valid=True, to_be_computed=True)
    cell.memory.write(0, word)
    assert cell.memory.read(0) == word


def _engines_built_for(quarantined: int) -> int:
    sim = GridSimulator(
        rows=8, cols=8, lifecycle_policy=POLICY, seed=3
    )
    obs = Observer()
    with observing(obs):
        coords = [(r, c) for r in range(8) for c in range(8)][:quarantined]
        for coord in coords:
            sim.grid.cell(*coord).heartbeat.record_error(100)
        sim.watchdog.poll()
        reports = sim.watchdog.probe_quarantined()
        sim.watchdog.probe_quarantined()
    assert len(reports) == quarantined
    assert all(report.passed for report in reports)
    return obs.metrics.counter("kernel.engines_built").value


def test_engines_built_does_not_grow_with_quarantined_cells(kernel_provider):
    few, many = _engines_built_for(2), _engines_built_for(60)
    assert few == many == (0 if kernel_provider is None else 1)
