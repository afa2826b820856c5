"""Grid-state snapshots and the temporal fault scheduler.

:class:`GridState` is the canonical observable state of a
:class:`~repro.grid.grid.NanoBoxGrid`, the currency of the differential
tests.  :class:`TemporalScheduler` applies a temporal fault process to a
grid from a due-date queue instead of sampling every cell every cycle.
"""

from __future__ import annotations

import copy
import weakref
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.faults.schedule import StreamBank
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.grid import Coord, NanoBoxGrid
from repro.grid.packet import InstructionPacket


class GridState:
    """Canonical observable-state snapshot of a grid.

    Captures everything the differential suite pins: per-cell records
    (liveness, heartbeat, compute counters, full memory image), fabric
    counters, the dropped-packet and CP-inbox sequences, and optionally
    the watchdog's lifecycle view.  Two runs are behaviourally identical
    iff their snapshots compare equal; ``diff`` localises a mismatch.
    """

    def __init__(self, snapshot: Dict[str, object]) -> None:
        self._snapshot = snapshot

    @classmethod
    def from_grid(
        cls, grid: NanoBoxGrid, watchdog=None
    ) -> "GridState":
        def describe(packet) -> Tuple[str, int]:
            kind = (
                "instruction"
                if isinstance(packet, InstructionPacket)
                else "result"
            )
            return (kind, packet.instruction_id)

        snapshot: Dict[str, object] = {
            "grid": (grid.rows, grid.cols),
            "cycle": grid.cycle,
            "mode": grid.mode.value,
            "cells": {
                coord: record for coord, record in grid.iter_cell_states()
            },
            "counters": {
                "misroutes": grid.misroutes,
                "invalid_routes": grid.invalid_routes,
                "corrupt_rejects": grid.corrupt_rejects,
                "cp_corrupt_rejects": grid.cp_corrupt_rejects,
                "link_dropped": grid.link_dropped,
                "dropped_packets": [
                    describe(p) for p in grid.dropped_packets
                ],
                "cp_inbox": [
                    (p.instruction_id, p.result) for p in grid.cp_inbox
                ],
            },
        }
        if watchdog is not None:
            from repro.grid.watchdog import CellState

            snapshot["watchdog"] = {
                "states": {
                    coord: watchdog.state(coord).value
                    for coord in grid.all_coords()
                    if watchdog.state(coord) is not CellState.ACTIVE
                },
                "disabled": watchdog.disabled_cells,
                "quarantines": watchdog.quarantines,
                "readmissions": watchdog.readmissions,
                "salvages": [
                    (r.failed_cell, r.cycle, r.salvaged_words, r.lost_words)
                    for r in watchdog.reports
                ],
                "probes": len(watchdog.probe_reports),
            }
        return cls(snapshot)

    def to_snapshot(self) -> Dict[str, object]:
        """A deep copy of the canonical plain-python snapshot dict.

        Copied so callers can mutate the result (diffing experiments,
        fault-injection what-ifs) without corrupting the state it came
        from.
        """
        return copy.deepcopy(self._snapshot)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridState):
            return NotImplemented
        return self._snapshot == other._snapshot

    def __repr__(self) -> str:
        return f"GridState({self._snapshot!r})"

    def diff(self, other: "GridState") -> List[str]:
        """Human-readable paths where two snapshots differ (for tests)."""

        def walk(path: str, a, b, out: List[str]) -> None:
            if type(a) is not type(b):
                out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
                return
            if isinstance(a, dict):
                for key in sorted(set(a) | set(b), key=repr):
                    if key not in a:
                        out.append(f"{path}[{key!r}]: missing on left")
                    elif key not in b:
                        out.append(f"{path}[{key!r}]: missing on right")
                    else:
                        walk(f"{path}[{key!r}]", a[key], b[key], out)
            elif isinstance(a, (list, tuple)):
                if len(a) != len(b):
                    out.append(f"{path}: length {len(a)} != {len(b)}")
                for i, (x, y) in enumerate(zip(a, b)):
                    walk(f"{path}[{i}]", x, y, out)
            elif a != b:
                out.append(f"{path}: {a!r} != {b!r}")

        out: List[str] = []
        walk("snapshot", self._snapshot, other.to_snapshot(), out)
        return out


#: Sentinel: the cell died mid-application; re-arm from the stream
#: position on revival instead of resuming a (consumed) scheduled entry.
_REARM = object()

#: First bulk-scan span per cell; doubles on every all-quiet rescan.
_INITIAL_HORIZON = 64

#: Rescan span ceiling: bounds per-rescan latency and stream overshoot.
_MAX_HORIZON = 65536


class TemporalScheduler:
    """Applies a temporal fault process to a grid via due-date buckets.

    The process's semantics are per cell and per cycle: every alive
    cell's :class:`~repro.faults.temporal.CellFaultStream` is sampled
    once per tick.  This scheduler holds every cell's stream in one
    :class:`~repro.faults.schedule.StreamBank`, bulk-advances over quiet
    spans, and keeps one entry per cell: the invocation at which its
    next event fires (or at which its quiet horizon runs out and is
    rescanned with a doubled span).  Entries live in per-invocation
    buckets of cell indices, so every cell falling due on one tick --
    events and rescans alike -- is handled by one batched stream scan.
    Per ``tick()`` the cost is the cells whose entries are due, not the
    fleet size.

    Aliveness accounting follows the per-cycle semantics exactly: a
    cell's stream advances one cycle per ``tick()`` *while the cell is
    alive*.  A liveness listener on the grid pauses a dying cell's entry
    (storing its remaining alive-cycle offset) and resumes it on
    revival, so suspend/revive round trips land events on the same
    alive-cycle a per-tick sampler would.  A batch of revivals (a probe
    round's readmissions) is resumed with one ``_schedule`` and re-armed
    with one ``_arm`` call.

    The grid must be fully alive at construction (a fresh grid is).
    ``tick()`` must be called exactly once per simulated cycle, alive
    cells or not.
    """

    def __init__(
        self, grid: NanoBoxGrid, process: TemporalFaultProcess, seed: int
    ) -> None:
        self._grid = grid
        self._cols = grid.cols
        self._inv = 0
        self.fired_total = 0
        self._streams = StreamBank(process, seed, grid.rows, grid.cols)
        n = grid.rows * grid.cols
        self._horizon = np.full(n, _INITIAL_HORIZON, dtype=np.int64)
        # Per cell: the invocation its entry falls due (-1: none) and
        # whether it fires an event there (else it is a rescan).
        self._due = np.full(n, -1, dtype=np.int64)
        self._fires = np.zeros(n, dtype=bool)
        # Invocation -> arrays of cells scheduled then; an entry is stale
        # once the cell's ``_due`` no longer names that invocation.
        self._buckets: Dict[int, List[np.ndarray]] = {}
        self._suspended: Dict[int, object] = {}
        self._arm(np.arange(n, dtype=np.int64))
        # The grid holds the listener, and the listener holds this
        # scheduler weakly: the grid is not kept in a cycle through it.
        scheduler = weakref.ref(self)

        def on_alive_change(coords: Sequence[Coord], healthy: bool) -> None:
            live = scheduler()
            if live is not None:
                live._on_alive_change(coords, healthy)

        grid.add_alive_listener(on_alive_change)

    def _schedule(self, cells: np.ndarray, due: np.ndarray, fires) -> None:
        self._due[cells] = due
        self._fires[cells] = fires
        if len(cells) == 1:
            self._buckets.setdefault(int(due[0]), []).append(cells)
            return
        order = np.argsort(due, kind="stable")
        bounds = np.flatnonzero(np.diff(due[order])) + 1
        for group in np.split(order, bounds):
            self._buckets.setdefault(int(due[group[0]]), []).append(cells[group])

    def _arm(self, cells: np.ndarray) -> None:
        """Scan the streams forward and schedule each next event or rescan.

        Precondition: each stream's position equals its cell's
        alive-cycle count as of invocation ``self._inv`` (true at
        construction, at a rescan's due tick, right after applying an
        event, and at a fresh-arm revival).
        """
        cells = cells[~self._streams.dead[cells]]
        if not len(cells):
            return
        horizon = self._horizon[cells]
        quiet, fired = self._streams.advance(cells, horizon)
        # All quiet: rescan exactly when the scanned span runs out.
        rescan = cells[~fired]
        self._horizon[rescan] = np.minimum(horizon[~fired] * 2, _MAX_HORIZON)
        self._schedule(cells, self._inv + quiet + fired, fired)

    def _on_alive_change(self, coords: Sequence[Coord], healthy: bool) -> None:
        cells = [row * self._cols + col for row, col in coords]
        if not healthy:
            for cell in cells:
                due = int(self._due[cell])
                if due >= 0:
                    self._due[cell] = -1
                    self._suspended[cell] = (due - self._inv, self._fires[cell])
                else:
                    # Mid-application death (its own kill/error event) or
                    # a dead stream: nothing scheduled to preserve.
                    self._suspended[cell] = _REARM
            return
        resumed: List[int] = []
        due: List[int] = []
        fires: List[bool] = []
        rearm: List[int] = []
        for cell in cells:
            state = self._suspended.pop(cell, None)
            if state is None:
                continue
            if state is _REARM:
                rearm.append(cell)
            else:
                remaining, fire = state
                resumed.append(cell)
                due.append(self._inv + remaining)
                fires.append(fire)
        if resumed:
            self._schedule(
                np.array(resumed, dtype=np.int64),
                np.array(due, dtype=np.int64),
                np.array(fires, dtype=bool),
            )
        if rearm:
            self._arm(np.array(rearm, dtype=np.int64))

    def tick(self) -> int:
        """Advance one hook invocation; fire due events.  Returns count."""
        self._inv += 1
        entries = self._buckets.pop(self._inv, None)
        if entries is None:
            return 0
        cells = np.unique(np.concatenate(entries))
        cells = cells[self._due[cells] == self._inv]
        self._due[cells] = -1
        fires = self._fires[cells]
        event = self._streams.event
        grid = self._grid
        fired = cells[fires].tolist()
        # Row-major application order, as a per-cell loop applies them.
        for cell in fired:
            coord = divmod(cell, self._cols)
            if event.kill:
                grid.kill_cell(*coord)
            else:
                grid.cell(*coord).heartbeat.record_error(event.errors)
        # Rescans, and every fired cell still up: an event that took its
        # own cell down left it to the listener for a fresh arm on
        # revival.  Events touch only their own cell, so arming after
        # the whole application pass equals arming after each event.
        rearm = ~fires
        if fired:
            rearm[fires] = [cell not in self._suspended for cell in fired]
        self._arm(cells[rearm])
        self.fired_total += len(fired)
        return len(fired)
