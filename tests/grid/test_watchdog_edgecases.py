"""Edge-case pins for the watchdog lifecycle, captured against the dense grid.

These tests froze two under-specified interleavings on the dense grid,
before the event-driven grid existed; the event-driven grid, which they
now build, must keep the same semantics:

* a cell that crosses the silence threshold on the very tick a canary
  probe round is in flight (probe rounds only ever touch cells already
  QUARANTINED at round start, and a freshly re-admitted cell re-enters
  the SUSPECT grace window rather than being re-quarantined instantly);
* an external ``heartbeat.revive()`` while the cell is QUARANTINED (the
  watchdog keeps the cell disabled and un-polled, but the fabric sees it
  alive again until a probe round formally re-admits it).
"""

import pytest

from repro.grid.grid import NanoBoxGrid
from repro.grid.watchdog import CellState, LifecyclePolicy, Watchdog


def _grid(**kwargs):
    defaults = dict(error_threshold=2, heartbeat_decay=1.0, n_words=8)
    defaults.update(kwargs)
    return NanoBoxGrid(3, 3, **defaults)


def _policy(**kwargs):
    defaults = dict(
        suspect_polls=2,
        probing=True,
        readmit_clean_probes=2,
        retire_failed_rounds=2,
    )
    defaults.update(kwargs)
    return LifecyclePolicy(**defaults)


def _drive_to_quarantine(grid, watchdog, coord, errors=50):
    """Push one cell over threshold and poll until it is quarantined."""
    grid.cell(*coord).heartbeat.record_error(errors)
    for _ in range(100):
        watchdog.poll()
        if watchdog.state(coord) is CellState.QUARANTINED:
            return
    raise AssertionError(f"{coord} never reached QUARANTINED")


class TestSuspectDuringProbeRound:
    def test_probe_round_ignores_cell_that_went_suspect_same_tick(self):
        """A probe round only touches cells QUARANTINED at round start.

        Cell A is quarantined; on the same tick a probe round runs, cell B
        crosses its error threshold.  The probe round must not see B: B
        takes the normal SUSPECT grace path on the next poll, and every
        probe report from the round names A.
        """
        grid = _grid()
        watchdog = Watchdog(grid, policy=_policy())
        a, b = (1, 0), (1, 1)
        _drive_to_quarantine(grid, watchdog, a)

        # Same tick: B goes over threshold just as the probe round fires.
        grid.cell(*b).heartbeat.record_error(50)
        reports = watchdog.probe_quarantined()
        assert reports, "quarantined cell A should have been probed"
        assert {r.cell for r in reports} == {a}
        # B was not probed and is not yet SUSPECT -- nothing has polled it.
        assert watchdog.state(b) is CellState.ACTIVE
        assert all(r.cell != b for r in watchdog.probe_reports)

        # The next poll starts B down the ordinary grace path.
        watchdog.poll()
        assert watchdog.state(b) is CellState.SUSPECT
        assert b not in watchdog.disabled_cells

    def test_readmitted_cell_going_silent_reenters_grace_window(self):
        """Re-admission resets the silent streak: a cell that fails the
        instant it returns is SUSPECT again, not instantly re-quarantined."""
        grid = _grid()
        watchdog = Watchdog(grid, policy=_policy())
        coord = (2, 2)
        _drive_to_quarantine(grid, watchdog, coord)
        assert watchdog.quarantines == 1

        # Fault-free ALUs pass canaries; two clean rounds re-admit.
        for _ in range(2):
            watchdog.probe_quarantined()
        assert watchdog.state(coord) is CellState.ACTIVE
        assert watchdog.readmissions == 1
        assert coord not in watchdog.disabled_cells

        # Same tick as re-admission: the cell goes silent again.
        grid.cell(*coord).heartbeat.record_error(50)
        watchdog.poll()
        assert watchdog.state(coord) is CellState.SUSPECT
        assert watchdog.quarantines == 1  # grace honoured, no new quarantine

        # suspect_polls=2 grants two graced polls before re-quarantine.
        watchdog.poll()
        assert watchdog.state(coord) is CellState.SUSPECT
        watchdog.poll()
        assert watchdog.state(coord) is CellState.QUARANTINED
        assert watchdog.quarantines == 2


class TestReviveDuringQuarantine:
    def test_external_revive_does_not_bypass_watchdog(self):
        """``revive()`` while QUARANTINED restores ``alive`` but the
        watchdog still treats the cell as disabled until probes clear it."""
        grid = _grid()
        watchdog = Watchdog(grid, policy=_policy())
        coord = (1, 2)
        _drive_to_quarantine(grid, watchdog, coord)
        cell = grid.cell(*coord)
        assert not cell.alive

        cell.heartbeat.revive()
        assert cell.alive  # the fabric sees the cell as healthy again...
        assert watchdog.state(coord) is CellState.QUARANTINED  # ...watchdog not
        assert coord in watchdog.disabled_cells

        # Polls keep skipping the disabled cell: no beats accrue.
        beats_before = cell.heartbeat.beats_emitted
        watchdog.poll()
        assert cell.heartbeat.beats_emitted == beats_before
        assert watchdog.state(coord) is CellState.QUARANTINED

        # The fabric, however, routes around the watchdog: the revived cell
        # is visible to alive-cell scans and reachability immediately.
        assert coord in grid.alive_cells()
        assert grid.reachable(2, 2) or grid.rows <= coord[0] + 1

    def test_revived_cell_still_needs_clean_probes_to_readmit(self):
        grid = _grid()
        watchdog = Watchdog(grid, policy=_policy())
        coord = (0, 1)
        _drive_to_quarantine(grid, watchdog, coord)
        grid.cell(*coord).heartbeat.revive()

        # One clean round is not enough (readmit_clean_probes=2).
        watchdog.probe_quarantined()
        assert watchdog.state(coord) is CellState.QUARANTINED
        assert watchdog.readmissions == 0

        watchdog.probe_quarantined()
        assert watchdog.state(coord) is CellState.ACTIVE
        assert watchdog.readmissions == 1
        assert coord not in watchdog.disabled_cells
        # revive() during quarantine is idempotent with re-admission's own
        # revive: the heartbeat is healthy and beats resume on poll.
        beats_before = grid.cell(*coord).heartbeat.beats_emitted
        watchdog.poll()
        assert grid.cell(*coord).heartbeat.beats_emitted == beats_before + 1

    def test_revive_without_probing_leaves_cell_retired(self):
        """With probing off, quarantine is terminal (RETIRED); an external
        revive brings the heartbeat back but never the lifecycle state."""
        grid = _grid()
        watchdog = Watchdog(grid, policy=LifecyclePolicy(suspect_polls=0))
        coord = (2, 0)
        grid.cell(*coord).heartbeat.record_error(50)
        watchdog.poll()
        assert watchdog.state(coord) is CellState.RETIRED
        assert coord in watchdog.disabled_cells

        grid.cell(*coord).heartbeat.revive()
        assert grid.cell(*coord).alive
        assert watchdog.probe_quarantined() == []  # probing disabled: no-op
        watchdog.poll()
        assert watchdog.state(coord) is CellState.RETIRED
        assert coord in watchdog.disabled_cells
