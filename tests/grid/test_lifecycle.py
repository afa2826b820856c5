"""Unit tests for the cell health lifecycle state machine.

Covers the extended watchdog of Section 2.3: suspect grace, quarantine
with salvage, canary probing, re-admission, retirement, and how the
lifecycle interacts with assignment and salvage target selection.
"""

import pytest

from repro.grid.grid import NanoBoxGrid
from repro.grid.watchdog import (
    PROBE_CANARIES,
    CellState,
    LifecyclePolicy,
    ProbeReport,
    Watchdog,
)


def _healing_grid(**kwargs):
    defaults = dict(error_threshold=2, heartbeat_decay=1.0, n_words=8)
    defaults.update(kwargs)
    return NanoBoxGrid(3, 3, **defaults)


def _healing_policy(**kwargs):
    defaults = dict(
        suspect_polls=2,
        probing=True,
        readmit_clean_probes=2,
        retire_failed_rounds=2,
    )
    defaults.update(kwargs)
    return LifecyclePolicy(**defaults)


class TestPolicyValidation:
    def test_defaults_are_legacy(self):
        policy = LifecyclePolicy()
        assert policy.suspect_polls == 0
        assert not policy.probing

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(suspect_polls=-1),
            dict(readmit_clean_probes=0),
            dict(retire_failed_rounds=0),
            dict(max_readmissions=-1),
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LifecyclePolicy(**kwargs)


class TestSuspectGrace:
    def test_burst_rides_out_grace_window(self):
        """A short burst trips SUSPECT, decays, and recovers to ACTIVE."""
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=_healing_policy(suspect_polls=3))
        grid.cell(1, 1).heartbeat.record_error(5)
        watchdog.poll()  # score 4 > 2: silent, grace 1
        assert watchdog.state((1, 1)) is CellState.SUSPECT
        watchdog.poll()  # score 3 > 2: silent, grace 2
        assert watchdog.state((1, 1)) is CellState.SUSPECT
        watchdog.poll()  # score 2 <= 2: beats again
        assert watchdog.state((1, 1)) is CellState.ACTIVE
        assert watchdog.disabled_cells == ()

    def test_grace_exhaustion_quarantines(self):
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=_healing_policy(suspect_polls=1))
        grid.cell(1, 1).heartbeat.record_error(9)
        watchdog.poll()
        assert watchdog.state((1, 1)) is CellState.SUSPECT
        reports = watchdog.poll()
        assert watchdog.state((1, 1)) is CellState.QUARANTINED
        assert [r.failed_cell for r in reports] == [(1, 1)]
        assert watchdog.disabled_cells == ((1, 1),)

    def test_no_grace_quarantines_first_poll(self):
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=_healing_policy(suspect_polls=0))
        grid.cell(1, 1).heartbeat.record_error(9)
        watchdog.poll()
        assert watchdog.state((1, 1)) is CellState.QUARANTINED


class TestProbing:
    def test_clean_probes_readmit(self):
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=_healing_policy(suspect_polls=0))
        grid.cell(1, 1).heartbeat.record_error(9)
        watchdog.poll()
        first = watchdog.probe_quarantined()
        assert [r.outcome for r in first] == [CellState.QUARANTINED]
        second = watchdog.probe_quarantined()
        assert [r.outcome for r in second] == [CellState.ACTIVE]
        assert watchdog.state((1, 1)) is CellState.ACTIVE
        assert watchdog.disabled_cells == ()
        assert watchdog.readmissions == 1
        assert grid.cell(1, 1).alive

    def test_hard_killed_cell_fails_probes_and_retires(self):
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=_healing_policy(suspect_polls=0))
        grid.kill_cell(1, 1)
        watchdog.poll()
        assert watchdog.state((1, 1)) is CellState.QUARANTINED
        watchdog.probe_quarantined()
        assert watchdog.state((1, 1)) is CellState.QUARANTINED
        watchdog.probe_quarantined()
        assert watchdog.state((1, 1)) is CellState.RETIRED
        assert watchdog.disabled_cells == ((1, 1),)
        assert watchdog.readmissions == 0

    def test_failed_probe_resets_clean_streak(self):
        grid = _healing_grid()
        policy = _healing_policy(
            suspect_polls=0, readmit_clean_probes=2, retire_failed_rounds=5
        )
        watchdog = Watchdog(grid, policy=policy)
        grid.cell(1, 1).heartbeat.record_error(9)
        watchdog.poll()
        watchdog.probe_quarantined()  # clean streak 1
        # Simulate a flaky probe round by hard-silencing before probing.
        grid.cell(1, 1).heartbeat.silence()
        report = watchdog.probe_quarantined()[0]
        assert not report.passed
        assert report.clean_streak == 0
        grid.cell(1, 1).heartbeat.revive()
        watchdog.probe_quarantined()  # clean streak 1 again
        assert watchdog.state((1, 1)) is CellState.QUARANTINED
        report = watchdog.probe_quarantined()[0]
        assert report.outcome is CellState.ACTIVE

    def test_probing_disabled_is_noop(self):
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=LifecyclePolicy())
        grid.cell(1, 1).heartbeat.record_error(9)
        watchdog.poll()
        assert watchdog.state((1, 1)) is CellState.RETIRED
        assert watchdog.probe_quarantined() == []
        assert watchdog.probe_reports == ()
        assert watchdog.state((1, 1)) is CellState.RETIRED

    def test_probe_reports_recorded(self):
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=_healing_policy(suspect_polls=0))
        grid.cell(1, 1).heartbeat.record_error(9)
        watchdog.poll()
        watchdog.probe_quarantined()
        assert len(watchdog.probe_reports) == 1
        report = watchdog.probe_reports[0]
        assert isinstance(report, ProbeReport)
        assert report.cell == (1, 1)
        assert report.passed
        assert report.clean_streak == 1

    def test_canaries_cover_every_opcode(self):
        assert sorted(op for op, _, _ in PROBE_CANARIES) == [
            0b000,
            0b001,
            0b010,
            0b111,
        ]


class TestReadmissionBudget:
    def test_budget_exhaustion_retires_on_next_quarantine(self):
        grid = _healing_grid()
        policy = _healing_policy(
            suspect_polls=0, readmit_clean_probes=1, max_readmissions=1
        )
        watchdog = Watchdog(grid, policy=policy)
        cell = grid.cell(1, 1)
        cell.heartbeat.record_error(9)
        watchdog.poll()
        watchdog.probe_quarantined()
        assert watchdog.state((1, 1)) is CellState.ACTIVE
        # Second failure: the budget is spent, so quarantine -> RETIRED.
        cell.heartbeat.record_error(9)
        watchdog.poll()
        assert watchdog.state((1, 1)) is CellState.RETIRED
        assert watchdog.probe_quarantined() == []

    def test_zero_budget_means_oneshot_even_with_probing(self):
        grid = _healing_grid()
        policy = _healing_policy(suspect_polls=0, max_readmissions=0)
        watchdog = Watchdog(grid, policy=policy)
        grid.cell(1, 1).heartbeat.record_error(9)
        watchdog.poll()
        assert watchdog.state((1, 1)) is CellState.RETIRED


class TestLifecycleIntegration:
    def test_quarantined_cells_excluded_from_salvage_targets(self):
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=_healing_policy(suspect_polls=0))
        # Quarantine (0, 1) first.
        grid.cell(0, 1).heartbeat.record_error(9)
        watchdog.poll()
        assert watchdog.state((0, 1)) is CellState.QUARANTINED
        # Now fail its neighbour (1, 1), which holds pending work.
        for iid in range(4):
            grid.cell(1, 1).store_instruction(iid + 1, 0b010, iid, 0xFF)
        grid.cell(1, 1).heartbeat.record_error(9)
        report = watchdog.poll()[0]
        assert report.fully_salvaged
        assert (0, 1) not in report.adopted

    def test_readmitted_cell_can_adopt_again(self):
        grid = _healing_grid()
        watchdog = Watchdog(
            grid,
            policy=_healing_policy(suspect_polls=0, readmit_clean_probes=1),
        )
        grid.cell(0, 1).heartbeat.record_error(9)
        watchdog.poll()
        watchdog.probe_quarantined()
        assert watchdog.state((0, 1)) is CellState.ACTIVE
        for iid in range(8):
            grid.cell(1, 1).store_instruction(iid + 1, 0b010, iid, 0xFF)
        grid.cell(1, 1).heartbeat.record_error(9)
        report = watchdog.poll()[0]
        assert report.fully_salvaged
        # All four direct neighbours (including the readmitted cell)
        # share the adoption load round-robin.
        assert (0, 1) in report.adopted

    def test_lifecycle_counts_sum_to_grid_size(self):
        grid = _healing_grid()
        watchdog = Watchdog(grid, policy=_healing_policy())
        grid.kill_cell(0, 0)
        for _ in range(4):
            watchdog.poll()
        counts = watchdog.lifecycle_counts()
        assert sum(counts.values()) == 9

    def test_lifecycle_counts_match_a_brute_force_count(self):
        """Cells in all four states, plus a readmitted cell whose state
        the watchdog holds as ACTIVE: the counts equal a per-cell tally."""
        grid = _healing_grid()
        watchdog = Watchdog(
            grid, policy=_healing_policy(suspect_polls=1, readmit_clean_probes=2)
        )
        grid.kill_cell(0, 0)
        grid.cell(1, 1).heartbeat.record_error(9)
        watchdog.poll()
        watchdog.poll()
        watchdog.probe_quarantined()
        grid.cell(2, 2).heartbeat.record_error(9)
        watchdog.poll()
        watchdog.poll()
        watchdog.probe_quarantined()
        grid.cell(0, 2).heartbeat.record_error(9)
        watchdog.poll()
        assert watchdog.state((0, 0)) is CellState.RETIRED
        assert watchdog.state((1, 1)) is CellState.ACTIVE
        assert watchdog.readmissions == 1
        assert watchdog.state((2, 2)) is CellState.QUARANTINED
        assert watchdog.state((0, 2)) is CellState.SUSPECT
        brute = {state.value: 0 for state in CellState}
        for coord in grid.all_coords():
            brute[watchdog.state(coord).value] += 1
        assert watchdog.lifecycle_counts() == brute
        assert brute == {"active": 6, "suspect": 1, "quarantined": 1, "retired": 1}
