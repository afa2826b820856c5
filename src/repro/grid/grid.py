"""The two-dimensional NanoBox Processor Grid fabric.

Coordinates follow the paper (Figure 2): row addresses *decrease* moving
down away from the control processor, so the top row -- the only row wired
to the control processor, via one 8-bit edge bus per column -- is row
``rows - 1``; column addresses *decrease* moving right, so the leftmost
column is ``cols - 1``.  There are no cross-grid buses: every packet moves
hop by hop over the four nearest-neighbour links of each cell.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.alu.base import FaultableUnit
from repro.alu.nanobox import NanoBoxALU
from repro.cell.aluctrl import MaskSource, _no_faults
from repro.cell.cell import CellFullError, CellMode, ProcessorCell
from repro.cell.router import Direction, route_packet
from repro.grid.bus import Bus
from repro.grid.linkfault import FaultEvent, FaultyBus, LinkFaultConfig
from repro.grid.packet import CRC_FLITS, InstructionPacket, Packet, ResultPacket
from repro.grid.routing import (
    Envelope,
    choose_direction,
    default_hop_budget,
    instruction_candidates,
    result_candidates,
)

#: Coordinate pair (row, col) in paper coordinates.
Coord = Tuple[int, int]

#: Sentinel endpoint for control-processor edge buses.
CONTROL_PROCESSOR = ("CP", "CP")


@lru_cache(maxsize=None)
def _default_alu_factory() -> FaultableUnit:
    """Paper's best cell configuration: triplicated-string LUT ALU.

    One frozen unit, shared by every cell of every default grid.
    """
    unit = NanoBoxALU(scheme="tmr")
    unit.site_space.freeze()
    return unit


@dataclass(frozen=True)
class BusStatistics:
    """Aggregate fabric-link counters (see ``NanoBoxGrid.bus_statistics``)."""

    delivered: int
    mesh_utilisation: float
    edge_utilisation: float
    peak_utilisation: float
    busiest_link: str


@dataclass(frozen=True)
class LinkFaultStatistics:
    """Aggregate link-fault counters (see ``NanoBoxGrid.link_fault_statistics``).

    ``crc_rejects`` and ``framing_rejects`` are *detected* corruptions
    (the receiver rejected the packet); ``silent_corruptions`` slipped
    through and were delivered with flipped bits; ``dropped`` packets
    vanished in flight and are only observable as timeouts.
    """

    bit_flips: int = 0
    dropped: int = 0
    stalled_cycles: int = 0
    crc_rejects: int = 0
    framing_rejects: int = 0
    silent_corruptions: int = 0

    @property
    def detected_corruptions(self) -> int:
        """Corrupt packets the fabric rejected rather than delivered."""
        return self.crc_rejects + self.framing_rejects

#: Per-link fault configuration: one config for every link, or a callable
#: mapping ``(src, dst)`` endpoints (cell coords or the CP sentinel) to a
#: config (return None for a perfect link).
LinkFaultPolicy = Union[
    LinkFaultConfig, Callable[[object, object], Optional[LinkFaultConfig]]
]


class NanoBoxGrid:
    """Grid of processor cells, buses, and the control-processor edge bus.

    Args:
        rows: grid height (cells per column).
        cols: grid width (cells per row); the paper envisions "on the
            order of hundreds of processor cells".
        alu_factory: returns each cell's ALU core.  It may hand the same
            unit to many cells (the built-in factories share one per
            design), so a unit must be stateless across ``compute``
            calls; probe rounds batch the cells sharing a unit.
        mask_source_factory: given a cell coordinate, returns that cell's
            per-execution fault-mask supplier (default: fault-free).
        n_words: memory words per cell (paper: 32).
        error_threshold: heartbeat error budget per cell.
        heartbeat_decay: leaky-bucket decay of each cell's heartbeat
            error score per cycle (0 keeps the legacy monotone tally;
            see :class:`repro.cell.heartbeat.Heartbeat`).
        adaptive_routing: when True, packets detour around dead cells
            (the future-work rerouting protocol; see
            :mod:`repro.grid.routing`); when False, the paper's
            deterministic five-case rule is used and anything aimed
            through a dead cell is dropped.
        lut_router_scheme: when set (e.g. ``"tmr"`` or ``"none"``), each
            cell's routing decision runs through a fault-prone
            :class:`~repro.cell.lutrouter.LUTRouter` built with that
            coding scheme instead of the ideal architectural rule --
            paper §7's router-in-LUTs future work, live in the fabric.
        router_mask_source_factory: per-cell fault-mask supplier for the
            LUT routers (one draw per routing decision).
        link_fault_config: link-level fault injection
            (:mod:`repro.grid.linkfault`): either one
            :class:`LinkFaultConfig` applied to every link (mesh and
            control-processor edge buses alike) or a callable
            ``(src, dst) -> Optional[LinkFaultConfig]`` for per-link
            rates.  None (default) keeps the fabric's links perfect.
        crc_enabled: frame every packet with a CRC-8 flit so corrupted
            packets are detected and rejected at the receiving router or
            CP inbox (each rejection also counts against the receiving
            cell's heartbeat, closing the loop to the watchdog).  Costs
            one extra cycle per packet per hop.
        link_fault_seed: base seed for the per-link fault PRNG streams.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        alu_factory: Callable[[], FaultableUnit] = _default_alu_factory,
        mask_source_factory: Optional[Callable[[Coord], MaskSource]] = None,
        n_words: int = 32,
        error_threshold: int = 8,
        heartbeat_decay: float = 0.0,
        adaptive_routing: bool = False,
        lut_router_scheme: Optional[str] = None,
        router_mask_source_factory: Optional[Callable[[Coord], MaskSource]] = None,
        link_fault_config: Optional[LinkFaultPolicy] = None,
        crc_enabled: bool = False,
        link_fault_seed: int = 0,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
        if lut_router_scheme is not None and (rows > 16 or cols > 16):
            raise ValueError(
                "LUT routers use 4-bit address nibbles: grid dimensions "
                f"must be <= 16, got {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.adaptive_routing = adaptive_routing
        self._hop_budget = default_hop_budget(rows, cols)
        # Construction parameters kept for deferred (lazy) materialisation
        # by the sparse engine subclass.
        self._alu_factory = alu_factory
        self._mask_source_factory = mask_source_factory
        self._n_words = n_words
        self._error_threshold = error_threshold
        self._heartbeat_decay = heartbeat_decay
        self._lut_router_scheme = lut_router_scheme
        self._router_mask_source_factory = router_mask_source_factory
        self._lut_routers: Dict[Coord, object] = {}
        self._router_mask_sources: Dict[Coord, MaskSource] = {}
        self.misroutes = 0
        self.invalid_routes = 0
        self._cells: Dict[Coord, ProcessorCell] = {}
        # Directed buses between neighbours plus per-column edge buses.
        # When link fault injection or CRC framing is configured, links
        # are built as FaultyBus / overhead-carrying Bus instances.
        self.crc_enabled = crc_enabled
        self._link_fault_config = link_fault_config
        self._link_fault_seed = link_fault_seed
        self.corrupt_rejects = 0
        self.cp_corrupt_rejects = 0
        self.link_dropped = 0
        self._buses: Dict[Tuple[Coord, Coord], Bus] = {}
        # Per-cell per-direction outbound queues of in-flight envelopes;
        # forwarded traffic is queued ahead of locally generated traffic
        # (paper Section 3.2.3).
        self._outboxes: Dict[Coord, Dict[Direction, Deque[Envelope]]] = {}
        self._inboxes: Dict[Coord, Deque[Envelope]] = {}
        self.cp_inbox: Deque[ResultPacket] = deque()
        self.dropped_packets: List[Packet] = []
        self._mode = CellMode.SHIFT_IN
        self._cycle = 0
        self._build_fabric()

    def _build_fabric(self) -> None:
        """Materialise every cell, link, and queue eagerly (dense path).

        The sparse engine overrides this with lazy construction; both
        paths produce identical components for identical coordinates
        because per-cell and per-link PRNG streams are keyed by
        coordinate / link index, never by construction order.
        """
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

    # ----------------------------------------------------- component factories

    def _make_cell(self, coord: Coord) -> ProcessorCell:
        """Build one processor cell exactly as the eager loop would."""
        source = (
            self._mask_source_factory(coord)
            if self._mask_source_factory
            else _no_faults
        )
        return ProcessorCell(
            coord[0],
            coord[1],
            self._alu_factory(),
            mask_source=source,
            n_words=self._n_words,
            error_threshold=self._error_threshold,
            heartbeat_decay=self._heartbeat_decay,
        )

    def _materialise_router(self, coord: Coord) -> None:
        from repro.cell.lutrouter import LUTRouter

        self._lut_routers[coord] = LUTRouter(self._lut_router_scheme)
        self._router_mask_sources[coord] = (
            self._router_mask_source_factory(coord)
            if self._router_mask_source_factory
            else _no_faults
        )

    @staticmethod
    def _make_outbox() -> Dict[Direction, Deque[Envelope]]:
        return {
            d: deque()
            for d in (Direction.UP, Direction.DOWN,
                      Direction.LEFT, Direction.RIGHT)
        }

    # ---------------------------------------------------------------- links

    def _link_stream_index(self, src, dst) -> int:
        """Deterministic PRNG-stream index of a directed link.

        Closed-form equivalent of the historical running counter over the
        eager construction order (mesh links row-major by source cell in
        UP, DOWN, LEFT, RIGHT order; then the per-column CP edge pairs),
        so lazily built links draw from the same per-link streams as the
        dense fabric.  Pinned against the enumeration order by
        ``tests/grid/test_grid.py``.
        """
        rows, cols = self.rows, self.cols
        mesh_total = 2 * (rows * (cols - 1) + cols * (rows - 1))
        if src == CONTROL_PROCESSOR:
            return mesh_total + 2 * dst[1]
        if dst == CONTROL_PROCESSOR:
            return mesh_total + 2 * src[1] + 1
        (r, c), (nr, nc) = src, dst
        # Links enumerated before source cell (r, c): full rows above,
        # then earlier cells in this row.
        vdeg = (1 if r < rows - 1 else 0) + (1 if r > 0 else 0)
        vpfx = min(r, rows - 1) + max(0, r - 1)
        hpfx = min(c, cols - 1) + max(0, c - 1)
        before = cols * vpfx + r * 2 * (cols - 1) + c * vdeg + hpfx
        # Offset within (r, c)'s UP, DOWN, LEFT, RIGHT in-bounds sequence.
        if nr == r + 1:
            offset = 0
        elif nr == r - 1:
            offset = 1 if r < rows - 1 else 0
        elif nc == c + 1:
            offset = (1 if r < rows - 1 else 0) + (1 if r > 0 else 0)
        else:
            offset = (
                (1 if r < rows - 1 else 0)
                + (1 if r > 0 else 0)
                + (1 if c < cols - 1 else 0)
            )
        return before + offset

    def _make_bus(self, src, dst) -> Bus:
        """Build one directed link, faulty when its config says so."""

        def label(endpoint) -> str:
            return "CP" if endpoint == CONTROL_PROCESSOR else str(endpoint)

        name = f"{label(src)}->{label(dst)}"
        overhead = CRC_FLITS if self.crc_enabled else 0
        config = self._link_fault_config
        if callable(config):
            config = config(src, dst)
        index = self._link_stream_index(src, dst)
        if config is None or not config.any_faults:
            return Bus(name, flit_overhead=overhead)
        rng = np.random.default_rng(
            np.random.SeedSequence([self._link_fault_seed, 0x1B05, index])
        )
        return FaultyBus(
            name,
            config,
            rng,
            crc_enabled=self.crc_enabled,
            flit_overhead=overhead,
        )

    # ------------------------------------------------------------- topology

    @property
    def top_row(self) -> int:
        """Row address of the row wired to the control processor."""
        return self.rows - 1

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

    def all_coords(self) -> Iterator[Coord]:
        """Every cell coordinate, row-major, without materialising cells."""
        return ((r, c) for r in range(self.rows) for c in range(self.cols))

    def _cell_alive(self, coord: Coord) -> bool:
        """Liveness predicate; the sparse engine answers from its mask."""
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
        """Number of alive cells (the sparse engine answers from its mask)."""
        return len(self.alive_cells())

    def on_cell_disabled(self, coord: Coord) -> None:
        """Watchdog hook: ``coord`` was quarantined/retired (no-op here)."""

    def on_cell_enabled(self, coord: Coord) -> None:
        """Watchdog hook: ``coord`` was re-admitted to service (no-op here)."""

    def poll_candidates(self) -> Iterator[ProcessorCell]:
        """Cells the watchdog must actually sample this poll.

        Dense: everyone.  The sparse engine narrows this to cells whose
        heartbeat could change state or miss a beat (non-quiescent),
        bulk-crediting the skipped quiescent beats instead.
        """
        return self.cells()

    def free_capacity(self, coord: Coord) -> int:
        """Free memory words at one cell (lazy-friendly accessor)."""
        cell = self._cells.get(coord)
        if cell is None:
            raise IndexError(
                f"no cell at {coord} in a {self.rows}x{self.cols} grid"
            )
        return cell.memory.n_words - cell.memory.occupancy()

    def neighbours(self, row: int, col: int) -> Dict[Direction, Coord]:
        """In-grid neighbours of a cell, keyed by outgoing direction."""
        result: Dict[Direction, Coord] = {}
        for direction in (Direction.UP, Direction.DOWN,
                          Direction.LEFT, Direction.RIGHT):
            nr, nc = direction.step(row, col)
            if 0 <= nr < self.rows and 0 <= nc < self.cols:
                result[direction] = (nr, nc)
        return result

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

    # ----------------------------------------------------------------- mode

    @property
    def mode(self) -> CellMode:
        return self._mode

    @property
    def cycle(self) -> int:
        """Cycles simulated so far."""
        return self._cycle

    def set_mode(self, mode: CellMode) -> None:
        """Broadcast a mode switch to every cell (control-processor lines)."""
        self._mode = mode
        for cell in self._cells.values():
            cell.set_mode(mode)

    # ----------------------------------------------------------- CP traffic

    def injection_column(self, dest_col: int) -> Optional[int]:
        """Edge-bus column the CP should inject on for a destination.

        The deterministic fabric always injects on the destination
        column; the adaptive fabric injects on the nearest *alive*
        top-row cell's column (ties broken toward lower columns).
        Returns ``None`` when no top-row cell is alive.
        """
        if not 0 <= dest_col < self.cols:
            raise ValueError(f"destination column {dest_col} out of range")
        if not self.adaptive_routing:
            return dest_col
        alive = [
            c for c in range(self.cols)
            if self._cell_alive((self.top_row, c))
        ]
        if not alive:
            return None
        return min(alive, key=lambda c: (abs(c - dest_col), c))

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

    def cp_bus_busy(self, col: int) -> bool:
        """True while column ``col``'s downstream edge bus is occupied."""
        return self._buses[(CONTROL_PROCESSOR, (self.top_row, col))].busy

    # ------------------------------------------------------------- failures

    def kill_cell(self, row: int, col: int) -> None:
        """Hard-fail a cell (heartbeat silenced immediately)."""
        self.cell(row, col).heartbeat.silence()

    # ----------------------------------------------------------- simulation

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

    def _neighbour_alive_test(self, coord: Coord, allow_cp: bool):
        """Predicate: is the neighbour through a direction a live exit?

        The control processor is a valid exit only for result packets
        (``allow_cp``); instructions must stay inside the grid.
        """

        def alive(direction: Direction) -> bool:
            target = self._bus_target(coord, direction)
            if target is None:
                return False
            if target == CONTROL_PROCESSOR:
                return allow_cp
            return self._cell_alive(target)

        return alive

    def _route_one(self, coord: Coord, envelope: Envelope) -> None:
        """Decide one envelope's fate at one cell."""
        cell = self._cells[coord]
        packet = envelope.packet
        if envelope.hops > self._hop_budget:
            self.dropped_packets.append(packet)
            return

        if isinstance(packet, ResultPacket):
            if not self.adaptive_routing:
                # Results always flow toward the control processor;
                # through-traffic goes to the head of the queue.
                self._outboxes[coord][Direction.UP].appendleft(
                    envelope.forwarded(coord)
                )
                return
            direction = choose_direction(
                result_candidates(cell.row, cell.col, self.top_row),
                coord,
                envelope.prev,
                self._neighbour_alive_test(coord, allow_cp=True),
            )
            if direction is None:
                self.dropped_packets.append(packet)
            else:
                self._outboxes[coord][direction].appendleft(
                    envelope.forwarded(coord)
                )
            return

        if self._lut_routers:
            # Paper §7: the routing decision itself runs through
            # fault-prone lookup tables.
            router = self._lut_routers[coord]
            direction, valid = router.route(
                packet.dest_row,
                packet.dest_col,
                cell.row,
                cell.col,
                fault_mask=self._router_mask_sources[coord](),
            )
            if not valid:
                self.invalid_routes += 1
                self.dropped_packets.append(packet)
                return
            ideal = route_packet(
                packet.dest_row, packet.dest_col, cell.row, cell.col
            ).direction
            if direction is not ideal:
                self.misroutes += 1
            if direction is Direction.HERE:
                try:
                    cell.store_instruction(
                        packet.instruction_id,
                        packet.opcode,
                        packet.operand1,
                        packet.operand2,
                    )
                except CellFullError:
                    self.dropped_packets.append(packet)
                return
            self._outboxes[coord][direction].append(envelope.forwarded(coord))
            return

        decision = route_packet(
            packet.dest_row, packet.dest_col, cell.row, cell.col
        )
        if decision.keep:
            try:
                cell.store_instruction(
                    packet.instruction_id,
                    packet.opcode,
                    packet.operand1,
                    packet.operand2,
                )
            except CellFullError:
                self.dropped_packets.append(packet)
            return
        if not self.adaptive_routing:
            self._outboxes[coord][decision.direction].append(
                envelope.forwarded(coord)
            )
            return
        direction = choose_direction(
            instruction_candidates(
                packet.dest_row, packet.dest_col, cell.row, cell.col
            ),
            coord,
            envelope.prev,
            self._neighbour_alive_test(coord, allow_cp=False),
        )
        if direction is None:
            self.dropped_packets.append(packet)
        else:
            self._outboxes[coord][direction].append(envelope.forwarded(coord))

    def _route_inboxes(self) -> None:
        for coord, inbox in self._inboxes.items():
            cell = self._cells[coord]
            while inbox:
                envelope = inbox.popleft()
                if not cell.alive:
                    self.dropped_packets.append(envelope.packet)
                    continue
                self._route_one(coord, envelope)

    def _result_exit(self, coord: Coord) -> Optional[Direction]:
        """Direction a freshly popped result should leave through."""
        if not self.adaptive_routing:
            return Direction.UP
        cell = self._cells[coord]
        return choose_direction(
            result_candidates(cell.row, cell.col, self.top_row),
            coord,
            None,
            self._neighbour_alive_test(coord, allow_cp=True),
        )

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

    def _bus_target(self, coord: Coord, direction: Direction):
        row, col = coord
        nr, nc = direction.step(row, col)
        if 0 <= nr < self.rows and 0 <= nc < self.cols:
            return (nr, nc)
        if direction is Direction.UP and row == self.top_row:
            return CONTROL_PROCESSOR
        return None

    # ------------------------------------------------------------ inventory

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

    def _cell_state_record(self, cell: ProcessorCell) -> Dict[str, object]:
        """Canonical observable state of one cell (plain python values)."""
        memory = cell.memory
        return {
            "alive": cell.alive,
            "forced_silent": cell.heartbeat.forced_silent,
            "errors": cell.heartbeat.error_count,
            "score": cell.heartbeat.error_score,
            "beats": cell.heartbeat.beats_emitted,
            "computed": cell.aluctrl.computed_total,
            "disagreements": cell.aluctrl.disagreements,
            "rejected": cell.rejected_packets,
            "words": tuple(memory.read_raw(i) for i in range(memory.n_words)),
        }

    def iter_cell_states(self) -> Iterator[Tuple[Coord, Dict[str, object]]]:
        """Yield ``(coord, record)`` for every cell, row-major.

        The record covers every field observable through the public cell
        API; the sparse engine overrides this to synthesise records for
        never-materialised cells, so snapshots compare across engines.
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

    def link_fault_statistics(self) -> LinkFaultStatistics:
        """Aggregate link-fault counters over every faulty link."""
        totals = LinkFaultStatistics()
        faulty = [b for b in self._buses.values() if isinstance(b, FaultyBus)]
        if not faulty:
            return totals
        return LinkFaultStatistics(
            bit_flips=sum(b.bit_flips for b in faulty),
            dropped=sum(b.dropped_in_flight for b in faulty),
            stalled_cycles=sum(b.stalled_cycles for b in faulty),
            crc_rejects=sum(b.crc_rejects for b in faulty),
            framing_rejects=sum(b.framing_rejects for b in faulty),
            silent_corruptions=sum(b.silent_corruptions for b in faulty),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        alive = len(self.alive_cells())
        return (
            f"NanoBoxGrid({self.rows}x{self.cols}, mode={self._mode.value}, "
            f"alive={alive}/{self.rows * self.cols}, cycle={self._cycle})"
        )
