"""The two-dimensional NanoBox Processor Grid fabric.

Coordinates follow the paper (Figure 2): row addresses *decrease* moving
down away from the control processor, so the top row -- the only row wired
to the control processor, via one 8-bit edge bus per column -- is row
``rows - 1``; column addresses *decrease* moving right, so the leftmost
column is ``cols - 1``.  There are no cross-grid buses: every packet moves
hop by hop over the four nearest-neighbour links of each cell.

The fabric is simulated event-driven: per-tick work is done only for the
*active frontier*, so a cycle costs what happens in it rather than the
grid area -- at realistic fault rates almost every cell of a large fleet
is idle and healthy almost all of the time.

* cells, buses, inboxes, and outboxes materialise lazily on first touch
  (quiescent cells never exist as objects at all);
* a link that cannot stall delivers from a timing wheel: each send is
  filed under the cycle its last flit arrives in, so the link costs
  nothing until then; only links that can stall tick, and only while
  busy; only non-empty inboxes route, only non-empty outboxes drain;
* only cells that hold work (or whose heartbeat is mid-transition) take
  compute/shift-out actions; idle cells' ALU-scan pointers are fast
  forwarded on demand;
* one compute tick's ALU work is one batch: the acting cells' result
  copies evaluate together, one call per shared unit
  (:func:`~repro.cell.cell.compute_cells`);
* the watchdog polls only *attention* cells it has not disabled --
  those whose heartbeat could do anything other than beat -- and every
  skipped quiescent beat is credited in bulk the moment the cell is
  looked at; a probe round readmits its passing cells in one batch
  (:meth:`NanoBoxGrid.readmit_cells`);
* temporal fault streams run from a due-date queue
  (:class:`~repro.grid.engine.TemporalScheduler`) instead of sampling
  every cell every cycle.

Every skipped step is unobservable (an idle cell's compute step is a
pure pointer increment, a bus tick short of delivery only counts a busy
cycle, a quiescent beat is a pure counter increment) and is replayed in
bulk before it could be observed.  Per-cell and per-link PRNG streams
are keyed by coordinate / link index, never by construction order, and
iteration over the active sets follows the row-major / link-index order,
so same-cycle event interleavings match.  The observable state
therefore equals, bit for bit, that of a fabric doing per-cell work
every cycle -- the reference the test suite keeps in
``tests/grid/dense_oracle.py``.  Custom ``alu_factory`` callables must
be construction-order independent (the built-in ones hand every cell
one shared, stateless unit).
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.alu.base import FaultableUnit
from repro.alu.nanobox import NanoBoxALU
from repro.cell.aluctrl import MaskSource, _no_faults
from repro.cell.cell import (
    CellFullError,
    CellMode,
    ProcessorCell,
    compute_cells,
)
from repro.cell.router import Direction, route_packet
from repro.grid.bus import Bus
from repro.grid.linkfault import FaultEvent, FaultyBus, LinkFaultConfig
from repro.grid.packet import CRC_FLITS, InstructionPacket, Packet, ResultPacket
from repro.grid.routing import (
    MESH_DIRECTIONS,
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


class _LazyDict(dict):
    """A dict of grid components that materialises missing entries.

    ``d[key]`` on a missing key calls ``materialise(grid, key)``, stores,
    and returns the result (a ``KeyError`` from it rejects the key).
    ``d.get(key)`` and ``key in d`` never materialise -- the grid uses
    them to ask "does this exist yet?" without creating it.  The grid is
    held through a weak reference, so a grid and its dicts form no
    reference cycle.
    """

    __slots__ = ("_grid", "_materialise")

    def __init__(
        self,
        grid: "weakref.ReferenceType[NanoBoxGrid]",
        materialise: Callable[["NanoBoxGrid", object], object],
    ) -> None:
        super().__init__()
        self._grid = grid
        self._materialise = materialise

    def __missing__(self, key):
        grid = self._grid()
        if grid is None:
            raise KeyError(key)
        value = self._materialise(grid, key)
        self[key] = value
        return value


def _heartbeat_hook(grid_ref, coord: Coord, _heartbeat=None) -> None:
    """A cell's heartbeat watcher; a no-op once its grid is gone."""
    grid = grid_ref()
    if grid is not None:
        grid._on_heartbeat(coord)


def _memory_hook(grid_ref, coord: Coord) -> None:
    """A cell's memory observer; a no-op once its grid is gone."""
    grid = grid_ref()
    if grid is not None:
        grid._on_memory(coord)


class NanoBoxGrid:
    """Grid of processor cells, buses, and the control-processor edge bus.

    Construction is O(1) in the grid area: the fabric materialises on
    demand (see the module docstring for the activity tracking).

    Args:
        rows: grid height (cells per column).
        cols: grid width (cells per row); the paper envisions "on the
            order of hundreds of processor cells".
        alu_factory: returns each cell's ALU core.  It may hand the same
            unit to many cells (the built-in factories share one per
            design), so a unit must be stateless across ``compute``
            calls; compute ticks and probe rounds batch the cells
            sharing a unit.
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
        # Construction parameters kept for deferred materialisation.
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
        # Links are built as FaultyBus / overhead-carrying Bus instances
        # when link fault injection or CRC framing is configured.
        self.crc_enabled = crc_enabled
        self._flit_overhead = CRC_FLITS if crc_enabled else 0
        self._link_fault_config = link_fault_config
        self._link_fault_seed = link_fault_seed
        self.corrupt_rejects = 0
        self.cp_corrupt_rejects = 0
        self.link_dropped = 0
        self.cp_inbox: Deque[ResultPacket] = deque()
        self.dropped_packets: List[Packet] = []
        self._mode = CellMode.SHIFT_IN
        self._cycle = 0
        # The one weak self-reference that cell callbacks and lazy
        # component dicts hold: nothing the grid owns points back at it,
        # so a dropped grid is freed by reference counting.
        self._ref = weakref.ref(self)
        self._build_fabric()

    def _build_fabric(self) -> None:
        """Set up the lazy fabric and its activity bookkeeping."""
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
        # polls earn no beats (a poll skips disabled cells before
        # beating them).
        self._wd_disabled: Set[Coord] = set()
        # Attention cells not disabled: exactly what a poll samples.
        self._poll_set: Set[Coord] = set()
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
        # Active fabric: busy links that can stall, non-empty
        # inboxes/outboxes.
        self._active_buses: Set[Tuple[object, object]] = set()
        # Timing wheel of the links that cannot stall: due cycle ->
        # (link index, key) of each delivery; and, per link in flight,
        # the cycle its busy count was last brought up to.
        self._wheel: Dict[int, List[Tuple[int, Tuple[object, object]]]] = {}
        self._in_wheel: Dict[Tuple[object, object], int] = {}
        self._active_inboxes: Set[Coord] = set()
        self._active_outboxes: Set[Coord] = set()
        # Stream index of every materialised link: the tick order key.
        self._link_index: Dict[Tuple[object, object], int] = {}
        self._alive_listeners: List[
            Callable[[Sequence[Coord], bool], None]
        ] = []
        kind = type(self)
        self._cells: Dict[Coord, ProcessorCell] = _LazyDict(
            self._ref, kind._materialise_cell
        )
        # Directed buses between neighbours plus per-column edge buses.
        self._buses: Dict[Tuple[object, object], Bus] = _LazyDict(
            self._ref, kind._materialise_link
        )
        # Per-cell per-direction outbound queues of in-flight envelopes;
        # forwarded traffic is queued ahead of locally generated traffic
        # (paper Section 3.2.3).
        self._outboxes: Dict[Coord, Dict[Direction, Deque[Envelope]]] = (
            _LazyDict(self._ref, kind._materialise_outbox)
        )
        self._inboxes: Dict[Coord, Deque[Envelope]] = _LazyDict(
            self._ref, kind._materialise_inbox
        )
        # Per-cell static exits: each outbox queue with the key of the
        # link it drains into (None for a disabled outer-edge bus).
        self._exits: Dict[Coord, Tuple[Tuple[Deque[Envelope], object], ...]] = (
            _LazyDict(self._ref, kind._materialise_exits)
        )
        if self._lut_router_scheme is not None:
            # LUT routers are capped at 16x16 grids; build them eagerly
            # so the routing path's truthiness check stays valid.
            for r in range(rows):
                for c in range(cols):
                    self._materialise_router((r, c))

    # ----------------------------------------------------- component factories

    def _in_bounds(self, coord) -> bool:
        return (
            coord != CONTROL_PROCESSOR
            and 0 <= coord[0] < self.rows
            and 0 <= coord[1] < self.cols
        )

    def _make_cell(self, coord: Coord) -> ProcessorCell:
        """Build one processor cell from the construction parameters."""
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

    def _materialise_cell(self, coord: Coord) -> ProcessorCell:
        if not self._in_bounds(coord):
            raise KeyError(coord)
        cell = self._make_cell(coord)
        cell.set_mode(self._mode)
        # The cell was quiescent (untouched) for every poll so far; pay
        # those beats before hooking the watcher.
        cell.heartbeat.credit_beats(self._polls)
        self._synced_at_poll[coord] = self._polls
        cell.heartbeat.watcher = partial(_heartbeat_hook, self._ref, coord)
        cell.memory.on_mutate = partial(_memory_hook, self._ref, coord)
        return cell

    def _materialise_router(self, coord: Coord) -> None:
        from repro.cell.lutrouter import LUTRouter

        self._lut_routers[coord] = LUTRouter(self._lut_router_scheme)
        self._router_mask_sources[coord] = (
            self._router_mask_source_factory(coord)
            if self._router_mask_source_factory
            else _no_faults
        )

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

    def _materialise_exits(self, coord: Coord):
        exits = []
        for direction, queue in self._outboxes[coord].items():
            target = self._bus_target(coord, direction)
            exits.append((queue, None if target is None else (coord, target)))
        return tuple(exits)

    @staticmethod
    def _make_outbox() -> Dict[Direction, Deque[Envelope]]:
        return {d: deque() for d in MESH_DIRECTIONS}

    # ---------------------------------------------------------------- links

    def _link_stream_index(self, src, dst) -> int:
        """Deterministic PRNG-stream index of a directed link.

        The position of the link in the full fabric's enumeration order
        (mesh links row-major by source cell in UP, DOWN, LEFT, RIGHT
        order; then the per-column CP edge pairs), in closed form, so a
        link draws from the same stream whenever it is built.  Pinned
        against the enumeration order by ``tests/grid/test_grid.py``.
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
        overhead = self._flit_overhead
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

    # ---------------------------------------------------------------- watchers

    def add_alive_listener(
        self, listener: Callable[[Sequence[Coord], bool], None]
    ) -> None:
        """Register ``listener(coords, healthy)`` for liveness flips.

        ``coords`` is a batch of cells, row-major, that all flipped to
        ``healthy``: one cell for a heartbeat change, every revived cell
        of a :meth:`readmit_cells` call.
        """
        self._alive_listeners.append(listener)

    def _on_heartbeat(self, coord: Coord, _heartbeat=None) -> None:
        """Heartbeat watcher: maintain the mask and the attention set."""
        heartbeat = self._cells[coord].heartbeat
        healthy = heartbeat.healthy
        if healthy != bool(self._alive[coord]):
            self._cross_alive(coord, healthy)
            if healthy:
                self._settle_column(coord[1])
            elif coord[0] > self._col_max_dead[coord[1]]:
                self._col_max_dead[coord[1]] = coord[0]
            for listener in self._alive_listeners:
                listener((coord,), healthy)
        self._settle_attention(coord, heartbeat)

    def _cross_alive(self, coord: Coord, healthy: bool) -> None:
        """Flip one cell's alive bit, moving its counts across the gate."""
        # Settle occupancy under the old gate first.
        if coord in self._mem_dirty:
            self._flush_cell(coord)
        pending, completed = self._cell_counts.get(coord, (0, 0))
        if not healthy:
            pending, completed = -pending, -completed
        self._total_pending += pending
        self._total_completed += completed
        self._alive[coord] = healthy

    def _settle_column(self, col: int) -> None:
        """Recompute one column's deepest dead row from the mask."""
        dead = np.flatnonzero(~self._alive[:, col])
        self._col_max_dead[col] = int(dead[-1]) if dead.size else -1

    def _settle_attention(self, coord: Coord, heartbeat) -> None:
        """Move a cell into or out of the attention set after a change."""
        if heartbeat.quiescent():
            if coord in self._attention:
                self._attention.discard(coord)
                self._poll_set.discard(coord)
                # Every poll so far reached this cell live.
                self._synced_at_poll[coord] = self._polls
        elif coord not in self._attention:
            self._credit_deficit(coord)
            self._attention.add(coord)
            if coord not in self._wd_disabled:
                self._poll_set.add(coord)
            self._join_phase(coord)

    def _on_memory(self, coord: Coord) -> None:
        """Memory watcher: dirty the counts, pull the cell into the phase."""
        self._mem_dirty.add(coord)
        self._join_phase(coord)

    def _credit_deficit(self, coord: Coord) -> None:
        """Repay the beats a quiescent cell was owed for skipped polls.

        No-op for attention cells (they are polled live) and a pure
        bookkeeping reset for watchdog-disabled cells (a poll skips them
        before beating, so nothing is owed).
        """
        if coord in self._attention:
            return
        owed = self._polls - self._synced_at_poll[coord]
        if owed and coord not in self._wd_disabled:
            self._cells[coord].heartbeat.credit_beats(owed)
        self._synced_at_poll[coord] = self._polls

    def on_cell_disabled(self, coord: Coord) -> None:
        """Watchdog hook: ``coord`` was quarantined/retired."""
        self._credit_deficit(coord)
        self._wd_disabled.add(coord)
        self._poll_set.discard(coord)

    def on_cell_enabled(self, coord: Coord) -> None:
        """Watchdog hook: ``coord`` was re-admitted to service."""
        self._wd_disabled.discard(coord)
        self._synced_at_poll[coord] = self._polls
        if coord in self._attention:
            self._poll_set.add(coord)

    def readmit_cells(self, coords: Sequence[Coord]) -> None:
        """Watchdog hook: return a probe round's passing cells to service.

        Each cell's heartbeat restarts with a clean score and the cell is
        re-enabled, as ``heartbeat.revive()`` then :meth:`on_cell_enabled`
        would do cell by cell, with the shared bookkeeping settled once:
        one reachability update per touched column and one alive-listener
        call with every revived cell.  ``coords`` are row-major.
        """
        revived: List[Coord] = []
        for coord in coords:
            heartbeat = self._cells[coord].heartbeat
            self._credit_deficit(coord)
            heartbeat.restart()
            if not self._alive[coord]:
                self._cross_alive(coord, True)
                revived.append(coord)
            self._settle_attention(coord, heartbeat)
            self.on_cell_enabled(coord)
        for col in {coord[1] for coord in revived}:
            self._settle_column(col)
        if revived:
            for listener in self._alive_listeners:
                listener(revived, True)

    # ------------------------------------------------------- phase bookkeeping

    def _phase_ticks(self) -> int:
        """Per-cell actions every alive cell has taken this phase."""
        ticks = self._cycle - self._phase_entry_cycle
        if not self._actions_done:
            ticks -= 1
        return max(ticks, 0)

    def _join_phase(self, coord: Coord) -> None:
        """Make a cell a per-tick actor for the rest of the phase.

        Joining cells were continuously alive and action-free since the
        phase began (anything observable would have joined them sooner),
        so the only trace of their skipped actions is the scan pointer
        -- replayed here in O(1).  A shift-out cell that left the phase
        after its scan ran out may rejoin: its pointer is already pinned
        at the end, so the replay leaves it there.
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

    # ------------------------------------------------------------- topology

    @property
    def top_row(self) -> int:
        """Row address of the row wired to the control processor."""
        return self.rows - 1

    def cell(self, row: int, col: int) -> ProcessorCell:
        """The cell at ``(row, col)``, materialised and with its beats paid."""
        coord = (row, col)
        try:
            cell = self._cells[coord]
        except KeyError:
            raise IndexError(
                f"no cell at ({row}, {col}) in a {self.rows}x{self.cols} grid"
            ) from None
        self._credit_deficit(coord)
        return cell

    def cells(self) -> Iterator[ProcessorCell]:
        """Materialised cells only (the working set), row-major.

        A cell that was never touched is alive, idle, and has empty
        memory; :meth:`iter_cell_states` reports it without building it.
        """
        coords = sorted(self._cells.keys())
        for coord in coords:
            self._credit_deficit(coord)
        return iter([self._cells[c] for c in coords])

    def all_coords(self) -> Iterator[Coord]:
        """Every cell coordinate, row-major, without materialising cells."""
        return ((r, c) for r in range(self.rows) for c in range(self.cols))

    def _cell_alive(self, coord: Coord) -> bool:
        """Liveness predicate, answered from the mask."""
        return bool(self._alive[coord])

    def alive_cells(self) -> List[Coord]:
        """Coordinates of all cells whose heartbeat is healthy."""
        rows_idx, cols_idx = np.nonzero(self._alive)
        return [(int(r), int(c)) for r, c in zip(rows_idx, cols_idx)]

    def alive_indices(self) -> np.ndarray:
        """Row-major flat indices (``row * cols + col``) of alive cells."""
        return np.flatnonzero(self._alive)

    def alive_count(self) -> int:
        """Number of alive cells."""
        return int(self._alive.sum())

    def poll_candidates(self) -> Iterator[ProcessorCell]:
        """Cells the watchdog must actually sample this poll.

        The attention cells the watchdog has not disabled, row-major:
        those whose heartbeat could change state or miss a beat.  A
        disabled cell is skipped by the poll before it beats and is owed
        nothing, so however many are quarantined they cost a poll
        nothing.  Counts the poll, so every other enabled cell is owed
        one beat, credited in bulk when it is next looked at.
        """
        self._polls += 1
        return iter([self._cells[c] for c in sorted(self._poll_set)])

    def free_capacity(self, coord: Coord) -> int:
        """Free memory words at one cell (never materialises it)."""
        if not self._in_bounds(coord):
            raise IndexError(
                f"no cell at {coord} in a {self.rows}x{self.cols} grid"
            )
        cell = self._cells.get(coord)
        if cell is None:
            return self._n_words
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
        if not self._alive[row, col]:
            return False
        if not self.adaptive_routing:
            # Reachable iff nothing above it in the column is dead.
            return row >= self._col_max_dead[col]
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
        key = (CONTROL_PROCESSOR, (self.top_row, column))
        return self._send(key, self._buses[key], Envelope(packet))

    def _send(self, key, bus: Bus, envelope: Envelope) -> bool:
        """Put ``envelope`` on link ``key``; False when it is busy.

        A link that cannot stall is filed under the cycle whose tick
        would deliver it; one that can is ticked every cycle.
        """
        if not bus.try_send(envelope):
            return False
        if bus.stalls:
            self._active_buses.add(key)
            return True
        due = self._cycle + envelope.flit_count + self._flit_overhead
        self._wheel.setdefault(due, []).append((self._link_index[key], key))
        self._in_wheel[key] = self._cycle
        return True

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
        self._actions_done = False
        self._tick_buses()
        self._route_inboxes()
        self._cell_actions()
        self._actions_done = True
        self._drain_outboxes()

    def _tick_buses(self) -> None:
        """Complete this cycle's wheel slot and tick the stalling links,
        merged in link-index order."""
        due = self._wheel.pop(self._cycle, [])
        if self._active_buses:
            index = self._link_index
            due.extend((index[key], key) for key in self._active_buses)
        if len(due) > 1:
            due.sort()
        in_wheel = self._in_wheel
        for _, key in due:
            bus = self._buses[key]
            sent = in_wheel.pop(key, None)
            if sent is None:
                delivered = bus.tick()
                if not bus.busy:
                    self._active_buses.discard(key)
            else:
                delivered = bus.advance(self._cycle - sent)
            if delivered is not None:
                self._handle_bus_delivery(key[1], delivered)

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
            self._active_inboxes.add(dst)
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
        if self._mode is CellMode.COMPUTE:
            # One lock-step batch: every active cell's ALU work this tick
            # is evaluated together (one kernel call per shared unit).
            cells = [self._cells[c] for c in sorted(self._phase_active)]
            compute_cells([cell for cell in cells if cell.alive])
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
                    if popped is None:
                        # The scan is exhausted until the next mode
                        # switch: every later pop this phase is None.
                        self._phase_active.discard(coord)
                        continue
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
            for queue, key in self._exits[coord]:
                if not queue:
                    continue
                if key is None:
                    # Outer-edge buses are disabled (paper Section 3.1)
                    # except the top row's link to the control processor.
                    self.dropped_packets.append(queue.popleft().packet)
                    continue
                bus = self._buses[key]
                if not bus.busy:
                    self._send(key, bus, queue.popleft())
            if not any(queues.values()):
                self._active_outboxes.discard(coord)

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
        if self._in_wheel:
            return False
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

    def total_pending_instructions(self) -> int:
        """Valid, not-yet-computed words across all alive cells."""
        self._flush_mem_dirty()
        return self._total_pending

    def total_completed_instructions(self) -> int:
        """Computed words awaiting shift-out across all alive cells."""
        self._flush_mem_dirty()
        return self._total_completed

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
        API.  Never-materialised cells get the record of a fresh cell
        that has beaten every poll, without being built.
        """
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

    def _first_link_key(self):
        """Key of the link with stream index 0."""
        if self.rows > 1:
            return ((0, 0), (1, 0))
        if self.cols > 1:
            return ((0, 0), (0, 1))
        return (CONTROL_PROCESSOR, (self.top_row, 0))

    def bus_statistics(self) -> "BusStatistics":
        """Aggregate link-utilisation counters since construction.

        Utilisation = busy cycles / elapsed cycles, averaged separately
        over the mesh links and the control-processor edge buses (the
        edge buses are the paper's only pin interface and the expected
        bottleneck).
        """
        if self._cycle == 0:
            return BusStatistics(0, 0.0, 0.0, 0.0, "")
        # Bring the busy counts of the links on the wheel up to now.
        for key, synced in self._in_wheel.items():
            self._buses[key].advance(self._cycle - synced)
            self._in_wheel[key] = self._cycle
        mesh_links = 2 * (
            self.rows * (self.cols - 1) + self.cols * (self.rows - 1)
        )
        edge_links = 2 * self.cols
        # Sum per-link utilisations individually, in link-index order:
        # the never-materialised links contribute exactly 0.0, which is
        # the identity of float addition, so the partial sums -- and
        # hence the averages -- equal a loop over the full fabric.
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
            # All-zero utilisation: name the first link of the fabric.
            busiest_name = self._buses[self._first_link_key()].name
        return BusStatistics(
            delivered=delivered,
            mesh_utilisation=mesh_sum / mesh_links if mesh_links else 0.0,
            edge_utilisation=edge_sum / edge_links,
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
