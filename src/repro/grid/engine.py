"""Event-driven sparse grid core for very large fleets.

The dense :class:`~repro.grid.grid.NanoBoxGrid` does per-cell work every
cycle: every bus ticks, every inbox drains, every alive cell takes a
compute/shift-out action, and the watchdog beats every heartbeat each
poll.  That is faithful to the hardware but makes a 10^6-cell fleet cost
10^6 python-level operations per cycle even when almost every cell is
idle and healthy -- which, at realistic fleet fault rates, is almost all
of them almost all of the time.

:class:`SparseGrid` is a drop-in subclass that does per-tick work only
for the *active frontier*:

* cells, buses, inboxes, and outboxes materialise lazily on first touch
  (quiescent cells never exist as objects at all);
* only busy buses tick, only non-empty inboxes route, only non-empty
  outboxes drain;
* only cells that hold work (or whose heartbeat is mid-transition) take
  compute/shift-out actions; idle cells' ALU-scan pointers are fast
  forwarded on demand;
* the watchdog polls only *attention* cells -- those whose heartbeat
  could do anything other than beat -- and every skipped quiescent beat
  is credited in bulk afterwards;
* temporal fault streams are held as per-cell ``PCG64`` registers in
  NumPy arrays (:mod:`repro.faults.schedule`), scanned in batches and
  applied by a :class:`TemporalScheduler` due-date queue instead of
  sampling every cell every cycle.

The contract is **bit-identity**: for equal construction parameters and
seeds, a SparseGrid and a NanoBoxGrid driven through the same call
sequence produce identical observable state -- heartbeat scores and beat
counts, watchdog transitions, delivery statistics, memory images, bus
statistics, and dropped-packet lists.  Identity holds because

* per-cell and per-link PRNG streams are keyed by coordinate / link
  index (never by construction order), so lazy construction draws the
  same streams;
* skipped work is provably unobservable (an idle cell's compute step is
  a pure pointer increment; an idle bus tick is a no-op; a quiescent
  heartbeat's beat is a pure counter increment) and is replayed in bulk
  the moment it could become observable;
* iteration orders over the active sets match the dense row-major /
  link-index orders, so same-cycle event interleavings are identical.

Persistent memory upsets (``memory_upset_rate``) draw from one RNG
shared by every alive cell in row-major order.
:class:`~repro.grid.simulator.GridSimulator` draws them the same way on
both engines: one vectorised count draw over :meth:`SparseGrid.alive_indices`
(read from the liveness mask), materialising only the cells hit.
Custom ``alu_factory`` callables must be construction-order independent
(the built-in ones hand every cell one shared, stateless unit).
"""

from __future__ import annotations

import copy
from collections import deque
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.cell.cell import CellMode, ProcessorCell
from repro.faults.schedule import StreamBank
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.bus import Bus
from repro.grid.grid import (
    CONTROL_PROCESSOR,
    BusStatistics,
    Coord,
    NanoBoxGrid,
)
from repro.grid.linkfault import FaultEvent
from repro.grid.packet import InstructionPacket, ResultPacket
from repro.grid.routing import Envelope


class _LazyDict(dict):
    """A dict that materialises missing entries through a factory.

    ``d[key]`` on a missing key calls ``factory(key)``, stores, and
    returns the result (a factory raising ``KeyError`` rejects the key).
    ``d.get(key)`` and ``key in d`` never materialise -- the engine uses
    them to ask "does this exist yet?" without creating it.
    """

    __slots__ = ("_factory",)

    def __init__(self, factory: Callable[[object], object]) -> None:
        super().__init__()
        self._factory = factory

    def __missing__(self, key):
        value = self._factory(key)
        self[key] = value
        return value


class SparseGrid(NanoBoxGrid):
    """Event-driven :class:`NanoBoxGrid`, bit-identical to the dense core.

    Construction is O(1) in the grid area: the fabric materialises on
    demand.  See the module docstring for the activity-tracking scheme
    and the exact identity contract.
    """

    # ------------------------------------------------------------ construction

    def _build_fabric(self) -> None:
        rows, cols = self.rows, self.cols
        # Liveness mask: answers alive-queries for cells that were never
        # materialised (always alive) without creating them.
        self._alive = np.ones((rows, cols), dtype=bool)
        # Per-column deepest dead row (-1 = none): closed-form
        # reachability under the deterministic top-down routing rule.
        self._col_max_dead = np.full(cols, -1, dtype=np.int64)
        # Attention set: materialised cells whose heartbeat is not
        # quiescent -- dead, suspect, or carrying a decaying score.  The
        # watchdog polls exactly these; everyone else is bulk-credited.
        self._attention: Set[Coord] = set()
        # Cells the watchdog has taken out of service.  Their skipped
        # polls earn no beats (the dense poll loop skips disabled cells
        # before beating them).
        self._wd_disabled: Set[Coord] = set()
        self._polls = 0
        self._synced_at_poll: Dict[Coord, int] = {}
        # Cells taking real per-tick actions in the current phase.
        self._phase_active: Set[Coord] = set()
        self._phase_entry_cycle = 0
        self._actions_done = True
        # Occupancy bookkeeping: cells with unflushed memory mutations,
        # per-cell (pending, completed) counts, and alive-gated totals.
        self._mem_dirty: Set[Coord] = set()
        self._cell_counts: Dict[Coord, Tuple[int, int]] = {}
        self._total_pending = 0
        self._total_completed = 0
        # Active fabric: busy links, non-empty inboxes/outboxes.
        self._active_buses: Set[Tuple[object, object]] = set()
        self._active_inboxes: Set[Coord] = set()
        self._active_outboxes: Set[Coord] = set()
        # Stream index of every materialised link: the tick order key.
        self._link_index: Dict[Tuple[object, object], int] = {}
        self._alive_listeners: List[Callable[[Coord, bool], None]] = []
        self._cells = _LazyDict(self._materialise_cell)
        self._buses = _LazyDict(self._materialise_link)
        self._outboxes = _LazyDict(self._materialise_outbox)
        self._inboxes = _LazyDict(self._materialise_inbox)
        if self._lut_router_scheme is not None:
            # LUT routers are capped at 16x16 grids; build them eagerly
            # so the dense routing path's truthiness check stays valid.
            for r in range(rows):
                for c in range(cols):
                    self._materialise_router((r, c))

    def _in_bounds(self, coord) -> bool:
        return (
            coord != CONTROL_PROCESSOR
            and 0 <= coord[0] < self.rows
            and 0 <= coord[1] < self.cols
        )

    def _materialise_cell(self, coord: Coord) -> ProcessorCell:
        if not self._in_bounds(coord):
            raise KeyError(coord)
        cell = self._make_cell(coord)
        cell.set_mode(self._mode)
        # The cell was quiescent (untouched) for every poll so far; pay
        # those beats before hooking the watcher.
        cell.heartbeat.credit_beats(self._polls)
        self._synced_at_poll[coord] = self._polls
        cell.heartbeat.watcher = partial(self._on_heartbeat, coord)
        cell.memory.on_mutate = partial(self._on_memory, coord)
        return cell

    def _materialise_link(self, key) -> Bus:
        src, dst = key
        if src == CONTROL_PROCESSOR:
            valid = self._in_bounds(dst) and dst[0] == self.top_row
        elif dst == CONTROL_PROCESSOR:
            valid = self._in_bounds(src) and src[0] == self.top_row
        else:
            valid = (
                self._in_bounds(src)
                and self._in_bounds(dst)
                and abs(src[0] - dst[0]) + abs(src[1] - dst[1]) == 1
            )
        if not valid:
            raise KeyError(key)
        self._link_index[key] = self._link_stream_index(src, dst)
        return self._make_bus(src, dst)

    def _materialise_outbox(self, coord: Coord):
        if not self._in_bounds(coord):
            raise KeyError(coord)
        return self._make_outbox()

    def _materialise_inbox(self, coord: Coord):
        if not self._in_bounds(coord):
            raise KeyError(coord)
        return deque()

    # ---------------------------------------------------------------- watchers

    def add_alive_listener(self, listener: Callable[[Coord, bool], None]) -> None:
        """Register ``listener(coord, healthy)`` for liveness flips."""
        self._alive_listeners.append(listener)

    def _on_heartbeat(self, coord: Coord, _heartbeat=None) -> None:
        """Heartbeat watcher: maintain the mask and the attention set."""
        cell = self._cells[coord]
        heartbeat = cell.heartbeat
        healthy = heartbeat.healthy
        if healthy != bool(self._alive[coord]):
            # Settle occupancy under the old gate, then flip it and move
            # the whole cell's counts across the alive boundary.
            if coord in self._mem_dirty:
                self._flush_cell(coord)
            pending, completed = self._cell_counts.get(coord, (0, 0))
            if healthy:
                self._alive[coord] = True
                self._total_pending += pending
                self._total_completed += completed
                col = coord[1]
                dead = np.nonzero(~self._alive[:, col])[0]
                self._col_max_dead[col] = int(dead[-1]) if dead.size else -1
            else:
                self._total_pending -= pending
                self._total_completed -= completed
                self._alive[coord] = False
                if coord[0] > self._col_max_dead[coord[1]]:
                    self._col_max_dead[coord[1]] = coord[0]
            for listener in self._alive_listeners:
                listener(coord, healthy)
        if heartbeat.quiescent():
            if coord in self._attention:
                self._attention.discard(coord)
                # Every poll so far reached this cell live.
                self._synced_at_poll[coord] = self._polls
        elif coord not in self._attention:
            self._credit_deficit(coord)
            self._attention.add(coord)
            self._join_phase(coord)

    def _on_memory(self, coord: Coord) -> None:
        """Memory watcher: dirty the counts, pull the cell into the phase."""
        self._mem_dirty.add(coord)
        self._join_phase(coord)

    def _credit_deficit(self, coord: Coord) -> None:
        """Repay the beats a quiescent cell was owed for skipped polls.

        No-op for attention cells (they are polled live) and a pure
        bookkeeping reset for watchdog-disabled cells (the dense poll
        loop skips them before beating, so nothing is owed).
        """
        if coord in self._attention:
            return
        owed = self._polls - self._synced_at_poll[coord]
        if owed and coord not in self._wd_disabled:
            self._cells[coord].heartbeat.credit_beats(owed)
        self._synced_at_poll[coord] = self._polls

    def on_cell_disabled(self, coord: Coord) -> None:
        self._credit_deficit(coord)
        self._wd_disabled.add(coord)

    def on_cell_enabled(self, coord: Coord) -> None:
        self._wd_disabled.discard(coord)
        self._synced_at_poll[coord] = self._polls

    # ------------------------------------------------------- phase bookkeeping

    def _phase_ticks(self) -> int:
        """Per-cell actions a dense cell has completed this phase."""
        ticks = self._cycle - self._phase_entry_cycle
        if not self._actions_done:
            ticks -= 1
        return max(ticks, 0)

    def _join_phase(self, coord: Coord) -> None:
        """Make a cell a per-tick actor for the rest of the phase.

        Joining cells were continuously alive and action-free since the
        phase began (anything observable would have joined them sooner),
        so the dense engine's only trace on them is the scan pointer --
        replayed here in O(1).
        """
        if self._mode is CellMode.SHIFT_IN or coord in self._phase_active:
            return
        cell = self._cells[coord]
        ticks = self._phase_ticks()
        if self._mode is CellMode.COMPUTE:
            cell.aluctrl.sync_pointer(ticks % cell.memory.n_words)
        elif ticks > 0:  # SHIFT_OUT: the first idle pop exhausts the scan
            cell.fast_forward_shift_out()
        self._phase_active.add(coord)

    def set_mode(self, mode: CellMode) -> None:
        self._mode = mode
        self._phase_entry_cycle = self._cycle
        self._actions_done = True
        for cell in self._cells.values():
            cell.set_mode(mode)
        if mode is CellMode.SHIFT_IN:
            self._phase_active = set()
            return
        self._flush_mem_dirty()
        field = 0 if mode is CellMode.COMPUTE else 1
        self._phase_active = {
            coord
            for coord, counts in self._cell_counts.items()
            if counts[field] > 0
        }
        self._phase_active.update(self._attention)

    # ------------------------------------------------------ occupancy tracking

    def _flush_cell(self, coord: Coord) -> None:
        cell = self._cells[coord]
        pending = sum(1 for _ in cell.memory.pending_words())
        completed = sum(1 for _ in cell.memory.completed_words())
        old_pending, old_completed = self._cell_counts.get(coord, (0, 0))
        if self._alive[coord]:
            self._total_pending += pending - old_pending
            self._total_completed += completed - old_completed
        self._cell_counts[coord] = (pending, completed)
        self._mem_dirty.discard(coord)

    def _flush_mem_dirty(self) -> None:
        for coord in list(self._mem_dirty):
            self._flush_cell(coord)

    def total_pending_instructions(self) -> int:
        self._flush_mem_dirty()
        return self._total_pending

    def total_completed_instructions(self) -> int:
        self._flush_mem_dirty()
        return self._total_completed

    def free_capacity(self, coord: Coord) -> int:
        if not self._in_bounds(coord):
            raise IndexError(
                f"no cell at {coord} in a {self.rows}x{self.cols} grid"
            )
        cell = self._cells.get(coord)
        if cell is None:
            return self._n_words
        return cell.memory.n_words - cell.memory.occupancy()

    # ----------------------------------------------------------- cell queries

    def _cell_alive(self, coord: Coord) -> bool:
        return bool(self._alive[coord])

    def alive_cells(self) -> List[Coord]:
        rows_idx, cols_idx = np.nonzero(self._alive)
        return [(int(r), int(c)) for r, c in zip(rows_idx, cols_idx)]

    def alive_indices(self) -> np.ndarray:
        return np.flatnonzero(self._alive)

    def alive_count(self) -> int:
        return int(self._alive.sum())

    def cells(self) -> Iterator[ProcessorCell]:
        """Materialised cells only (the working set), row-major."""
        return iter([self._cells[c] for c in sorted(self._cells.keys())])

    def poll_candidates(self) -> Iterator[ProcessorCell]:
        """Attention cells, row-major; counts the poll for bulk credit."""
        self._polls += 1
        return iter([self._cells[c] for c in sorted(self._attention)])

    def reachable(self, row: int, col: int) -> bool:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(
                f"no cell at ({row}, {col}) in a {self.rows}x{self.cols} grid"
            )
        if not self._alive[row, col]:
            return False
        if not self.adaptive_routing:
            # Reachable iff nothing above it in the column is dead.
            return row >= self._col_max_dead[col]
        return super().reachable(row, col)

    def iter_cell_states(self):
        virtual = None
        for coord in self.all_coords():
            cell = self._cells.get(coord)
            if cell is None:
                if virtual is None:
                    virtual = {
                        "alive": True,
                        "forced_silent": False,
                        "errors": 0,
                        "score": 0.0,
                        "beats": self._polls,
                        "computed": 0,
                        "disagreements": 0,
                        "rejected": 0,
                        "words": (0,) * self._n_words,
                    }
                yield coord, virtual
            else:
                self._credit_deficit(coord)
                yield coord, self._cell_state_record(cell)

    # ------------------------------------------------------------- simulation

    def step(self) -> None:
        self._cycle += 1
        self._actions_done = False
        self._tick_buses()
        self._route_inboxes()
        self._cell_actions()
        self._actions_done = True
        self._drain_outboxes()

    def _tick_buses(self) -> None:
        for key in sorted(self._active_buses, key=self._link_index.__getitem__):
            bus = self._buses[key]
            delivered = bus.tick()
            if delivered is not None:
                self._handle_bus_delivery(key[1], delivered)
            if not bus.busy:
                self._active_buses.discard(key)

    def _handle_bus_delivery(self, dst, delivered) -> None:
        super()._handle_bus_delivery(dst, delivered)
        if (
            dst != CONTROL_PROCESSOR
            and not isinstance(delivered, FaultEvent)
            and self._inboxes.get(dst)
        ):
            self._active_inboxes.add(dst)

    def _route_inboxes(self) -> None:
        for coord in sorted(self._active_inboxes):
            inbox = self._inboxes[coord]
            cell = self._cells[coord]
            while inbox:
                envelope = inbox.popleft()
                if not cell.alive:
                    self.dropped_packets.append(envelope.packet)
                    continue
                self._route_one(coord, envelope)
            self._active_inboxes.discard(coord)
            if any(self._outboxes[coord].values()):
                self._active_outboxes.add(coord)

    def _cell_actions(self) -> None:
        if self._mode is CellMode.COMPUTE:
            for coord in sorted(self._phase_active):
                cell = self._cells[coord]
                if cell.alive:
                    cell.compute_step()
        elif self._mode is CellMode.SHIFT_OUT:
            for coord in sorted(self._phase_active):
                cell = self._cells[coord]
                if not cell.alive:
                    continue
                exit_direction = self._result_exit(coord)
                if exit_direction is None:
                    continue  # isolated cell: keep results until retry
                exit_queue = self._outboxes[coord][exit_direction]
                if not exit_queue:
                    popped = cell.pop_result()
                    if popped is not None:
                        iid, result = popped
                        exit_queue.append(
                            Envelope(ResultPacket(iid, result), prev=coord)
                        )
                        self._active_outboxes.add(coord)

    def _drain_outboxes(self) -> None:
        for coord in sorted(self._active_outboxes):
            queues = self._outboxes[coord]
            if not self._cell_alive(coord):
                for queue in queues.values():
                    while queue:
                        self.dropped_packets.append(queue.popleft().packet)
                self._active_outboxes.discard(coord)
                continue
            for direction, queue in queues.items():
                if not queue:
                    continue
                target = self._bus_target(coord, direction)
                if target is None:
                    self.dropped_packets.append(queue.popleft().packet)
                    continue
                key = (coord, target)
                if self._buses[key].try_send(queue[0]):
                    queue.popleft()
                    self._active_buses.add(key)
            if not any(queues.values()):
                self._active_outboxes.discard(coord)

    def cp_send(self, packet: InstructionPacket) -> bool:
        column = self.injection_column(packet.dest_col)
        if column is None:
            raise RuntimeError("no alive top-row cell to inject through")
        key = (CONTROL_PROCESSOR, (self.top_row, column))
        sent = self._buses[key].try_send(Envelope(packet))
        if sent:
            self._active_buses.add(key)
        return sent

    def idle(self) -> bool:
        for key in list(self._active_buses):
            if self._buses[key].busy:
                return False
            self._active_buses.discard(key)
        for coord in list(self._active_inboxes):
            if self._inboxes[coord]:
                return False
            self._active_inboxes.discard(coord)
        for coord in list(self._active_outboxes):
            if any(self._outboxes[coord].values()):
                return False
            self._active_outboxes.discard(coord)
        return True

    # ------------------------------------------------------------- statistics

    def _first_link_key(self):
        """Key of the link with stream index 0 (the dense dict's first)."""
        if self.rows > 1:
            return ((0, 0), (1, 0))
        if self.cols > 1:
            return ((0, 0), (0, 1))
        return (CONTROL_PROCESSOR, (self.top_row, 0))

    def bus_statistics(self) -> BusStatistics:
        if self._cycle == 0:
            return BusStatistics(0, 0.0, 0.0, 0.0, "")
        mesh_links = 2 * (
            self.rows * (self.cols - 1) + self.cols * (self.rows - 1)
        )
        edge_links = 2 * self.cols
        # Sum per-link utilisations individually, in link-index order:
        # the skipped (never-materialised) links contribute exactly 0.0,
        # which is the identity of float addition, so the partial sums
        # -- and hence the averages -- are bit-identical to the dense
        # full-fabric loop.
        mesh_sum = 0.0
        edge_sum = 0.0
        delivered = 0
        busiest_name = ""
        busiest_util = -1.0
        for (src, dst), bus in sorted(
            self._buses.items(), key=lambda item: self._link_index[item[0]]
        ):
            utilisation = bus.busy_cycles / self._cycle
            delivered += bus.delivered_count
            if CONTROL_PROCESSOR in (src, dst):
                edge_sum += utilisation
            else:
                mesh_sum += utilisation
            if utilisation > busiest_util:
                busiest_util = utilisation
                busiest_name = bus.name
        if busiest_util <= 0.0:
            # All-zero utilisation: the dense loop names its first link.
            busiest_name = self._buses[self._first_link_key()].name
        return BusStatistics(
            delivered=delivered,
            mesh_utilisation=mesh_sum / mesh_links if mesh_links else 0.0,
            edge_utilisation=edge_sum / edge_links,
            peak_utilisation=max(busiest_util, 0.0),
            busiest_link=busiest_name,
        )


class GridState:
    """Canonical observable-state snapshot of a grid (any engine).

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

    The dense path samples every alive cell's
    :class:`~repro.faults.temporal.CellFaultStream` once per cycle.
    This scheduler holds every cell's stream in one
    :class:`~repro.faults.schedule.StreamBank`, bulk-advances over quiet
    spans, and keeps one entry per cell: the invocation at which its
    next event fires (or at which its quiet horizon runs out and is
    rescanned with a doubled span).  Entries live in per-invocation
    buckets of cell indices, so every cell falling due on one tick --
    events and rescans alike -- is handled by one batched stream scan.
    Per ``tick()`` the cost is the cells whose entries are due, not the
    fleet size.

    Aliveness accounting mirrors the dense loop exactly: a cell's stream
    advances one cycle per ``tick()`` *while the cell is alive*.  A
    liveness listener on the grid pauses a dying cell's entry (storing
    its remaining alive-cycle offset) and resumes it on revival, so
    suspend/revive round trips land events on the same alive-cycle the
    dense per-tick sampler would.

    The grid must be fully alive at construction (a fresh grid is).
    ``tick()`` must be called exactly once per dense-hook invocation,
    alive cells or not.
    """

    def __init__(
        self, grid: SparseGrid, process: TemporalFaultProcess, seed: int
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
        grid.add_alive_listener(self._on_alive_change)

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

    def _on_alive_change(self, coord: Coord, healthy: bool) -> None:
        cell = coord[0] * self._cols + coord[1]
        if not healthy:
            due = int(self._due[cell])
            if due >= 0:
                self._due[cell] = -1
                self._suspended[cell] = (due - self._inv, self._fires[cell])
            else:
                # Mid-application death (its own kill/error event) or a
                # dead stream: nothing scheduled to preserve.
                self._suspended[cell] = _REARM
            return
        state = self._suspended.pop(cell, None)
        if state is None:
            return
        cells = np.array([cell], dtype=np.int64)
        if state is _REARM:
            self._arm(cells)
        else:
            remaining, fires = state
            self._schedule(cells, np.array([self._inv + remaining]), fires)

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
        # Row-major application order, matching the dense per-cell loop.
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
