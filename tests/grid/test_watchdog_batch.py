"""Batched readmission, pinned against the per-cell lifecycle.

A probe round readmits every cell that passed in one grid call
(``NanoBoxGrid.readmit_cells``), and the watchdog polls only attention
cells it has not disabled.  These tests drive three fabrics through the
same lifecycle -- a rolling wave that overwhelms hundreds of cells
between probe rounds, a live temporal fault process whose error bursts
silence cells mid-event, a hard kill, suspect grace, and a readmission
budget -- and compare them after every probe round:

* the production grid (batched readmission);
* :class:`PerCellGrid`, the production grid readmitting one cell at a
  time through the heartbeat watcher (``revive()`` then
  ``on_cell_enabled``), the path the dense oracle takes -- compared
  down to the grid's bookkeeping and the temporal scheduler's queue;
* :class:`~tests.grid.dense_oracle.DenseGrid` with the per-tick fault
  sampler -- compared on every observable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.cell.cell import CellMode
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.engine import GridState, TemporalScheduler
from repro.grid.grid import NanoBoxGrid
from repro.grid.watchdog import CellState, LifecyclePolicy, Watchdog
from repro.obs import Observer, observing
from tests.grid.dense_oracle import DenseGrid, dense_temporal

ROWS, COLS = 12, 24
THRESHOLD = 3
SEED = 11
#: Cycles between probe rounds, and probe rounds per run.
PROBE_INTERVAL = 24
ROUNDS = 6
#: Every WAVE_PERIOD cycles the wave overwhelms the next BAND columns,
#: so each probe round finds well over a hundred quarantined cells.
WAVE_PERIOD = 3
BAND = 3
OVERWHELM = 3 * (THRESHOLD + 1)
#: Hard kills by cycle: an active cell, and one the wave hits later.
KILLS = {5: [(3, 5)], 30: [(7, 20)]}
#: Cells loaded with instructions before the run, so readmitted cells
#: carry completed words back across the alive boundary.
LOADED = [(r, c) for r in range(ROWS) for c in range(COLS) if (r * 7 + c) % 5 == 0]
#: Error bursts that overshoot the threshold in one event: the cell
#: dies inside its own fault application and re-arms on readmission.
PROCESS = TemporalFaultProcess.intermittent(
    0.002, burst_length=3, errors_per_cycle=THRESHOLD + 2
)

POLICIES = {
    "clean1": LifecyclePolicy(suspect_polls=1, probing=True, readmit_clean_probes=1),
    "clean2": LifecyclePolicy(suspect_polls=1, probing=True, readmit_clean_probes=2),
    "budget": LifecyclePolicy(
        suspect_polls=1, probing=True, readmit_clean_probes=1, max_readmissions=1
    ),
}

Coord = Tuple[int, int]


class RecordingGrid(NanoBoxGrid):
    """The production grid, recording what each poll yields."""

    def _build_fabric(self) -> None:
        super()._build_fabric()
        self.yielded_disabled: List[Coord] = []
        self.peak_disabled_attention = 0

    def poll_candidates(self):
        cells = list(super().poll_candidates())
        self.yielded_disabled.extend(
            c.cell_id for c in cells if c.cell_id in self._wd_disabled
        )
        self.peak_disabled_attention = max(
            self.peak_disabled_attention,
            len(self._wd_disabled & self._attention),
        )
        return iter(cells)


class PerCellGrid(RecordingGrid):
    """The production grid readmitting one cell at a time.

    Each cell is revived through its heartbeat watcher and then
    re-enabled, as :class:`DenseGrid` does.
    """

    def readmit_cells(self, coords) -> None:
        for coord in coords:
            self.cell(*coord).heartbeat.revive()
            self.on_cell_enabled(coord)


class Rig:
    """One fabric, its watchdog and fault sampler, and the soak driver."""

    def __init__(self, kind: str, policy: LifecyclePolicy) -> None:
        grid_type = {
            "grid": RecordingGrid, "percell": PerCellGrid, "dense": DenseGrid
        }[kind]
        self.grid = grid_type(
            ROWS, COLS, error_threshold=THRESHOLD, heartbeat_decay=1.0, n_words=8
        )
        self.watchdog = Watchdog(self.grid, policy=policy)
        sampler = dense_temporal if kind == "dense" else TemporalScheduler
        self.temporal = sampler(self.grid, PROCESS, SEED)
        self.alive_cell_cycles = 0
        for index, (r, c) in enumerate(LOADED):
            for k in range(3):
                self.grid.cell(r, c).store_instruction(
                    index * 3 + k, 0b111, (index + k) % 256, (7 * index) % 256
                )
        self.grid.set_mode(CellMode.COMPUTE)

    def tick(self) -> None:
        grid = self.grid
        cycle = grid.cycle + 1
        for coord in KILLS.get(cycle, ()):
            grid.kill_cell(*coord)
        self.temporal.tick()
        if cycle % WAVE_PERIOD == 0:
            first = (cycle // WAVE_PERIOD) * BAND
            for col in range(first, first + BAND):
                for row in range(ROWS):
                    grid.cell(row, col % COLS).heartbeat.record_error(OVERWHELM)
        self.alive_cell_cycles += grid.alive_count()
        grid.step()
        self.watchdog.poll()

    def observables(self) -> Dict[str, object]:
        """Everything a user of the grid and the watchdog can see."""
        grid, watchdog = self.grid, self.watchdog
        return {
            "state": GridState.from_grid(grid, watchdog),
            "lifecycle": {
                coord: watchdog.state(coord) for coord in grid.all_coords()
            },
            "probes": watchdog.probe_reports,
            "pending": grid.total_pending_instructions(),
            "completed": grid.total_completed_instructions(),
            "alive": grid.alive_count(),
            "alive_cell_cycles": self.alive_cell_cycles,
            "reachable": [
                grid.reachable(*coord) for coord in grid.all_coords()
            ],
        }

    def internals(self) -> Dict[str, object]:
        """The event-driven grid's bookkeeping and the scheduler's queue."""
        grid, scheduler = self.grid, self.temporal
        return {
            "alive": grid._alive.tolist(),
            "col_max_dead": grid._col_max_dead.tolist(),
            "attention": sorted(grid._attention),
            "wd_disabled": sorted(grid._wd_disabled),
            "synced": dict(grid._synced_at_poll),
            "phase_active": sorted(grid._phase_active),
            "cell_counts": dict(grid._cell_counts),
            "totals": (grid._total_pending, grid._total_completed),
            "due": scheduler._due.tolist(),
            "fires": scheduler._fires.tolist(),
            "horizon": scheduler._horizon.tolist(),
            "suspended": dict(scheduler._suspended),
            "registers": scheduler._streams.registers.tolist(),
        }


def soak(kind: str, policy: LifecyclePolicy, observed: bool):
    """Run the lifecycle; return per-round observables, internals and the
    rig, plus the observer's lifecycle records and watchdog counters."""
    obs = Observer() if observed else None
    rounds: List[Dict[str, object]] = []
    inner: List[Dict[str, object]] = []
    readmitted_per_round: List[int] = []

    def run() -> Rig:
        rig = Rig(kind, policy)
        for _ in range(ROUNDS):
            for _ in range(PROBE_INTERVAL):
                rig.tick()
            reports = rig.watchdog.probe_quarantined()
            readmitted_per_round.append(
                sum(r.outcome is CellState.ACTIVE for r in reports)
            )
            rounds.append(rig.observables())
            if kind != "dense":
                inner.append(rig.internals())
        return rig

    if obs is None:
        rig = run()
        records, counters = None, None
    else:
        with observing(obs):
            rig = run()
        records = [
            (e.kind, e.source, dict(e.fields))
            for e in obs.trace.events
            if e.kind.startswith("cell_") or e.kind == "probe_result"
        ]
        counters = {
            name: value
            for name, value in obs.metrics.snapshot()["counters"].items()
            if name.startswith("watchdog.")
        }
    return rig, rounds, inner, readmitted_per_round, records, counters


def assert_rounds_equal(left, right) -> None:
    assert len(left) == len(right)
    for index, (a, b) in enumerate(zip(left, right)):
        assert a["state"] == b["state"], (
            f"round {index}: " + "\n".join(a["state"].diff(b["state"])[:20])
        )
        for key in a:
            assert a[key] == b[key], f"round {index}: {key} differs"


def assert_readmissions_traced(records, readmissions: int) -> None:
    """Each readmitting probe result directly follows its cell's
    ``cell_readmitted`` record, and there is one such record per
    readmission."""
    readmitted = [r for r in records if r[0] == "cell_readmitted"]
    assert len(readmitted) == readmissions > 0
    previous = None
    for record in records:
        kind, _, fields = record
        if kind == "probe_result" and fields["outcome"] == "active":
            assert previous is not None and previous[0] == "cell_readmitted"
            assert previous[2] == {
                "cell": fields["cell"], "cycle": fields["cycle"]
            }
        previous = record


@pytest.mark.parametrize("policy", list(POLICIES), ids=list(POLICIES))
@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_batched_lifecycle_matches_per_cell_and_oracle(policy, observed):
    grid, percell, dense = (
        soak(kind, POLICIES[policy], observed)
        for kind in ("grid", "percell", "dense")
    )
    rig, rounds, inner, readmitted, records, counters = grid
    # The scenario does what it is meant to: hundreds of cells readmitted
    # in one probe round, a hard kill that fails its probes, fault events
    # under way, and (with a budget) retirements.
    assert max(readmitted) >= 200
    assert rig.watchdog.state(KILLS[5][0]) is CellState.RETIRED
    assert rig.temporal.fired_total > 0
    if POLICIES[policy].max_readmissions is not None:
        retired = rig.watchdog.cells_in_state(CellState.RETIRED)
        assert len(retired) > 100
    assert_rounds_equal(rounds, dense[1])
    assert_rounds_equal(rounds, percell[1])
    assert readmitted == dense[3] == percell[3]
    assert len(inner) == len(percell[2]) == ROUNDS
    for index, (a, b) in enumerate(zip(inner, percell[2])):
        for key in a:
            assert a[key] == b[key], f"round {index}: {key} differs"
    if observed:
        assert records == dense[4] == percell[4]
        assert_readmissions_traced(records, rig.watchdog.readmissions)
        assert counters == dense[5] == percell[5]
        assert counters["watchdog.readmissions"] == rig.watchdog.readmissions


def test_scheduler_queue_follows_liveness():
    """Every alive cell has a scheduled entry and no suspended one; every
    dead cell the reverse, after each batched probe round."""
    _, _, inner, _, _, _ = soak("grid", POLICIES["clean1"], observed=False)
    _, oracle_rounds, _, _, _, _ = soak("dense", POLICIES["clean1"], False)
    for state, internals in zip(oracle_rounds, inner):
        cells = state["state"].to_snapshot()["cells"]
        for (r, c), record in cells.items():
            index = r * COLS + c
            if record["alive"]:
                assert internals["due"][index] >= 0, (r, c)
                assert index not in internals["suspended"], (r, c)
            else:
                assert internals["due"][index] == -1, (r, c)
                assert index in internals["suspended"], (r, c)


@pytest.mark.parametrize("policy", list(POLICIES), ids=list(POLICIES))
def test_poll_never_yields_a_disabled_cell(policy):
    rig = soak("grid", POLICIES[policy], observed=False)[0]
    # Quarantined cells crowd the attention set, yet no poll sees one.
    assert rig.grid.peak_disabled_attention >= 100
    assert rig.grid.yielded_disabled == []
