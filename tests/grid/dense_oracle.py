"""The dense reference fabric: every cell, every cycle.

:class:`DenseGrid` is the grid as the hardware runs it: every cell, link
and queue is built up front, every bus ticks, every inbox drains, every
alive cell acts and the watchdog beats every heartbeat on every poll.
:func:`dense_temporal` samples every alive cell's temporal fault stream
on every tick.  Together they are the oracle the event-driven
:class:`~repro.grid.grid.NanoBoxGrid` and its
:class:`~repro.grid.engine.TemporalScheduler` must match bit for bit.

:func:`dense_engine` swaps both into :mod:`repro.grid.simulator`, so a
:class:`~repro.grid.simulator.GridSimulator` built inside it runs on the
oracle.  Run as a module, this file runs the CLI that way::

    PYTHONPATH=src python -m tests.grid.dense_oracle grid --rows 6 --cols 6
"""

from __future__ import annotations

import sys
from collections import deque
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pytest

from repro.cell.cell import CellMode, ProcessorCell
from repro.cell.router import Direction
from repro.faults.temporal import TemporalFaultProcess
from repro.grid import simulator
from repro.grid.grid import (
    CONTROL_PROCESSOR,
    BusStatistics,
    Coord,
    NanoBoxGrid,
)
from repro.grid.linkfault import FaultEvent
from repro.grid.packet import InstructionPacket, ResultPacket
from repro.grid.routing import Envelope


class DenseGrid(NanoBoxGrid):
    """:class:`NanoBoxGrid` doing per-cell work every cycle."""

    def _build_fabric(self) -> None:
        """Materialise every cell, link, and queue eagerly.

        Lazy and eager construction produce identical components for
        identical coordinates because per-cell and per-link PRNG streams
        are keyed by coordinate / link index, never by construction
        order.
        """
        self._cells, self._buses = {}, {}
        self._outboxes, self._inboxes = {}, {}
        rows, cols = self.rows, self.cols
        if self._lut_router_scheme is not None:
            for r in range(rows):
                for c in range(cols):
                    self._materialise_router((r, c))
        for r in range(rows):
            for c in range(cols):
                self._cells[(r, c)] = self._make_cell((r, c))
        for r in range(rows):
            for c in range(cols):
                for direction in (Direction.UP, Direction.DOWN,
                                  Direction.LEFT, Direction.RIGHT):
                    nr, nc = direction.step(r, c)
                    if 0 <= nr < rows and 0 <= nc < cols:
                        key = ((r, c), (nr, nc))
                        if key not in self._buses:
                            self._buses[key] = self._make_bus(*key)
        top = rows - 1
        for c in range(cols):
            for key in ((CONTROL_PROCESSOR, (top, c)),
                        ((top, c), CONTROL_PROCESSOR)):
                self._buses[key] = self._make_bus(*key)
        self._outboxes.update(
            (coord, self._make_outbox()) for coord in self._cells
        )
        self._inboxes.update((coord, deque()) for coord in self._cells)

    def cell(self, row: int, col: int) -> ProcessorCell:
        try:
            return self._cells[(row, col)]
        except KeyError:
            raise IndexError(
                f"no cell at ({row}, {col}) in a {self.rows}x{self.cols} grid"
            ) from None

    def cells(self) -> Iterator[ProcessorCell]:
        """All cells, row-major."""
        return iter(self._cells.values())

    def _cell_alive(self, coord: Coord) -> bool:
        """Liveness predicate, asked of the cell itself."""
        return self._cells[coord].alive

    def alive_cells(self) -> List[Coord]:
        """Coordinates of all cells whose heartbeat is healthy."""
        return [coord for coord, cell in self._cells.items() if cell.alive]

    def alive_indices(self) -> np.ndarray:
        """Row-major flat indices (``row * cols + col``) of alive cells."""
        return np.array(
            [r * self.cols + c for r, c in self.alive_cells()], dtype=np.int64
        )

    def alive_count(self) -> int:
        """Number of alive cells."""
        return len(self.alive_cells())

    def on_cell_disabled(self, coord: Coord) -> None:
        """Watchdog hook: ``coord`` was quarantined/retired (no-op here)."""

    def on_cell_enabled(self, coord: Coord) -> None:
        """Watchdog hook: ``coord`` was re-admitted to service (no-op here)."""

    def readmit_cells(self, coords) -> None:
        """Watchdog hook: revive and re-enable each cell in turn."""
        for coord in coords:
            self._cells[coord].heartbeat.revive()
            self.on_cell_enabled(coord)

    def poll_candidates(self) -> Iterator[ProcessorCell]:
        """Cells the watchdog must actually sample this poll.

        Everyone: every heartbeat beats on every poll.
        """
        return self.cells()

    def free_capacity(self, coord: Coord) -> int:
        """Free memory words at one cell."""
        cell = self._cells.get(coord)
        if cell is None:
            raise IndexError(
                f"no cell at {coord} in a {self.rows}x{self.cols} grid"
            )
        return cell.memory.n_words - cell.memory.occupancy()

    def reachable(self, row: int, col: int) -> bool:
        """True when the control processor can exchange packets with a cell.

        Under the paper's deterministic rule, the route runs straight
        down the destination column from the edge bus (and straight back
        up for results), so a cell is reachable iff it and every cell
        above it in its column are alive.  With adaptive routing a cell
        is reachable iff some path of alive cells connects it to an alive
        top-row cell.
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(
                f"no cell at ({row}, {col}) in a {self.rows}x{self.cols} grid"
            )
        if not self._cell_alive((row, col)):
            return False
        if not self.adaptive_routing:
            return all(
                self._cell_alive((r, col)) for r in range(row + 1, self.rows)
            )
        # BFS over alive cells from every alive top-row entry point.
        frontier = [
            (self.top_row, c)
            for c in range(self.cols)
            if self._cell_alive((self.top_row, c))
        ]
        seen = set(frontier)
        while frontier:
            current = frontier.pop()
            if current == (row, col):
                return True
            for neighbour in self.neighbours(*current).values():
                if neighbour not in seen and self._cell_alive(neighbour):
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return (row, col) in seen

    def set_mode(self, mode: CellMode) -> None:
        """Broadcast a mode switch to every cell (control-processor lines)."""
        self._mode = mode
        for cell in self._cells.values():
            cell.set_mode(mode)

    def cp_send(self, packet: InstructionPacket) -> bool:
        """Control processor pushes a packet onto an edge bus.

        Returns False when the selected bus is still busy.

        Raises:
            RuntimeError: with adaptive routing when no alive top-row
                cell remains to inject through.
        """
        column = self.injection_column(packet.dest_col)
        if column is None:
            raise RuntimeError("no alive top-row cell to inject through")
        top_cell = (self.top_row, column)
        return self._buses[(CONTROL_PROCESSOR, top_cell)].try_send(
            Envelope(packet)
        )

    def step(self) -> None:
        """Advance the whole fabric one clock cycle."""
        self._cycle += 1
        self._tick_buses()
        self._route_inboxes()
        self._cell_actions()
        self._drain_outboxes()

    def _tick_buses(self) -> None:
        for (_, dst), bus in self._buses.items():
            delivered = bus.tick()
            if delivered is not None:
                self._handle_bus_delivery(dst, delivered)

    def _handle_bus_delivery(self, dst, delivered) -> None:
        """Resolve one bus delivery (or fault event) at its receiver."""
        if isinstance(delivered, FaultEvent):
            self.dropped_packets.append(delivered.envelope.packet)
            if not delivered.detected:
                # Lost in flight: invisible to the receiver, only the
                # control processor's delivery timeout recovers it.
                self.link_dropped += 1
                return
            # Detected corruption (CRC or framing reject).  The
            # receiver discards the packet; a cell receiver also
            # charges its heartbeat, so a persistently noisy link
            # eventually trips the watchdog (paper Section 2.3).
            self.corrupt_rejects += 1
            if dst == CONTROL_PROCESSOR:
                self.cp_corrupt_rejects += 1
            elif self._cell_alive(dst):
                self._cells[dst].heartbeat.record_error()
            return
        if dst == CONTROL_PROCESSOR:
            if isinstance(delivered.packet, ResultPacket):
                self.cp_inbox.append(delivered.packet)
            else:  # pragma: no cover - cells never send instructions up
                self.dropped_packets.append(delivered.packet)
        elif self._cell_alive(dst):
            self._inboxes[dst].append(delivered)
        else:
            # The fabric around a disabled cell ceases delivering to it.
            self.dropped_packets.append(delivered.packet)

    def _route_inboxes(self) -> None:
        for coord, inbox in self._inboxes.items():
            cell = self._cells[coord]
            while inbox:
                envelope = inbox.popleft()
                if not cell.alive:
                    self.dropped_packets.append(envelope.packet)
                    continue
                self._route_one(coord, envelope)

    def _cell_actions(self) -> None:
        for coord, cell in self._cells.items():
            if not cell.alive:
                continue
            if self._mode is CellMode.COMPUTE:
                cell.compute_step()
            elif self._mode is CellMode.SHIFT_OUT:
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

    def _drain_outboxes(self) -> None:
        for coord, queues in self._outboxes.items():
            if not self._cells[coord].alive:
                for queue in queues.values():
                    while queue:
                        self.dropped_packets.append(queue.popleft().packet)
                continue
            for direction, queue in queues.items():
                if not queue:
                    continue
                target = self._bus_target(coord, direction)
                if target is None:
                    # Outer-edge buses are disabled (paper Section 3.1)
                    # except the top row's link to the control processor.
                    self.dropped_packets.append(queue.popleft().packet)
                    continue
                bus = self._buses[(coord, target)]
                if bus.try_send(queue[0]):
                    queue.popleft()

    def idle(self) -> bool:
        """True when no packet is in flight, queued, or undelivered."""
        if any(bus.busy for bus in self._buses.values()):
            return False
        if any(self._inboxes[c] for c in self._cells):
            return False
        for queues in self._outboxes.values():
            if any(queues[d] for d in queues):
                return False
        return True

    def total_pending_instructions(self) -> int:
        """Valid, not-yet-computed words across all alive cells."""
        return sum(
            sum(1 for _ in cell.memory.pending_words())
            for cell in self._cells.values()
            if cell.alive
        )

    def total_completed_instructions(self) -> int:
        """Computed words awaiting shift-out across all alive cells."""
        return sum(
            sum(1 for _ in cell.memory.completed_words())
            for cell in self._cells.values()
            if cell.alive
        )

    def iter_cell_states(self) -> Iterator[Tuple[Coord, Dict[str, object]]]:
        """Yield ``(coord, record)`` for every cell, row-major.

        The record covers every field observable through the public cell
        API.
        """
        for coord in self.all_coords():
            yield coord, self._cell_state_record(self._cells[coord])

    def bus_statistics(self) -> "BusStatistics":
        """Aggregate link-utilisation counters since construction.

        Utilisation = busy cycles / elapsed cycles, averaged separately
        over the mesh links and the control-processor edge buses (the
        edge buses are the paper's only pin interface and the expected
        bottleneck).
        """
        if self._cycle == 0:
            return BusStatistics(0, 0.0, 0.0, 0.0, "")
        mesh_util: List[float] = []
        edge_util: List[float] = []
        busiest_name = ""
        busiest_util = -1.0
        for (src, dst), bus in self._buses.items():
            utilisation = bus.busy_cycles / self._cycle
            if CONTROL_PROCESSOR in (src, dst):
                edge_util.append(utilisation)
            else:
                mesh_util.append(utilisation)
            if utilisation > busiest_util:
                busiest_util = utilisation
                busiest_name = bus.name
        return BusStatistics(
            delivered=sum(b.delivered_count for b in self._buses.values()),
            mesh_utilisation=sum(mesh_util) / len(mesh_util) if mesh_util else 0.0,
            edge_utilisation=sum(edge_util) / len(edge_util) if edge_util else 0.0,
            peak_utilisation=max(busiest_util, 0.0),
            busiest_link=busiest_name,
        )


def dense_temporal(
    grid: NanoBoxGrid, process: TemporalFaultProcess, seed: int
) -> SimpleNamespace:
    """Per-cell temporal sampler: one stream draw per alive cell per tick.

    Takes the :class:`~repro.grid.engine.TemporalScheduler` arguments
    and returns an object whose ``tick()`` applies one cycle's events
    and returns how many fired.
    """
    streams = {
        cell.cell_id: process.attach(cell.cell_id, seed)
        for cell in grid.cells()
    }

    def tick() -> int:
        fired = 0
        for cell in grid.cells():
            if not cell.alive:
                continue
            event = streams[cell.cell_id].sample()
            if event.quiet:
                continue
            fired += 1
            if event.kill:
                grid.kill_cell(*cell.cell_id)
            elif event.errors:
                cell.heartbeat.record_error(event.errors)
        return fired

    return SimpleNamespace(tick=tick)


@contextmanager
def dense_engine() -> Iterator[None]:
    """Build every :class:`GridSimulator` in the block on the oracle."""
    saved = simulator.NanoBoxGrid, simulator.TemporalScheduler
    simulator.NanoBoxGrid = DenseGrid
    simulator.TemporalScheduler = dense_temporal
    try:
        yield
    finally:
        simulator.NanoBoxGrid, simulator.TemporalScheduler = saved


#: Parametrize a test over a simulator built on the oracle and on the grid.
ENGINES = pytest.mark.parametrize(
    "engine", [dense_engine, nullcontext], ids=["dense", "grid"]
)


if __name__ == "__main__":
    from repro.cli import main

    with dense_engine():
        sys.exit(main(sys.argv[1:]))
