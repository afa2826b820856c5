"""Watchdog, failover, and the cell health lifecycle (paper Section 2.3).

"A watchdog unit in the communication fabric monitors these processor cell
heartbeat signals and determines if a cell has exceeded its error
threshold.  If a processor cell is disabled, the communication fabric
surrounding the disabled processor cell will cease sending instructions to
that processor cell.  If the router and cell memory are still functioning,
the contents of the cell memory will be sent to the surrounding processor
cells so that they can finish any outstanding computations."

The paper's watchdog is a one-shot kill switch, which is the right model
for permanent defects but wastes healthy capacity under transient fault
processes: a single burst retires a cell forever.  This module extends it
into an explicit per-cell health lifecycle::

    ACTIVE --silent--> SUSPECT --still silent--> QUARANTINED
      ^                   |                        |        \\
      |<--beat returns----+       N clean probes   |         M failed
      |                                            v         probe rounds
      +<------------------------------------- (readmitted)      |
                                                                v
                                                             RETIRED

Quarantined cells are salvaged exactly as before, then probed with
known-answer canary instructions (driven by the control processor between
job rounds).  ``LifecyclePolicy()`` -- no suspect grace, probing disabled
-- reproduces the original permanent-disable behaviour exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.alu.reference import reference_compute
from repro.cell.cell import CellFullError, probe_cells
from repro.grid.grid import Coord, NanoBoxGrid
from repro.obs import get_observer


class CellState(enum.Enum):
    """Lifecycle state of one processor cell, as seen by the watchdog."""

    #: Beating normally; in the routing, assignment, and salvage sets.
    ACTIVE = "active"
    #: Heartbeat went silent, within the suspect grace window; may
    #: recover to ACTIVE if the leaky-bucket score decays back under
    #: threshold before the grace runs out.
    SUSPECT = "suspect"
    #: Disabled and salvaged; awaiting canary probes (if probing is on).
    QUARANTINED = "quarantined"
    #: Permanently out of service (failed its probe budget, or probing
    #: is disabled -- the paper's one-shot semantics).
    RETIRED = "retired"


@dataclass(frozen=True)
class LifecyclePolicy:
    """Knobs of the cell health lifecycle.

    The default configuration -- no suspect grace, probing disabled --
    is behaviourally identical to the original watchdog: the first
    silent poll quarantines the cell, and without probing a quarantined
    cell is never re-admitted (``disabled_cells`` reports it forever).

    Args:
        suspect_polls: consecutive silent polls tolerated in SUSPECT
            before quarantine.  0 quarantines on the first silent poll.
        probing: enable the canary probe protocol on quarantined cells.
        readmit_clean_probes: consecutive clean probes required to
            re-admit a quarantined cell into service.
        retire_failed_rounds: failed probe rounds after which a
            quarantined cell is retired permanently.
        max_readmissions: lifetime re-admission budget per cell; once a
            cell has been re-admitted this many times, its next
            quarantine retires it immediately (None = unlimited).
    """

    suspect_polls: int = 0
    probing: bool = False
    readmit_clean_probes: int = 3
    retire_failed_rounds: int = 2
    max_readmissions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.suspect_polls < 0:
            raise ValueError(
                f"suspect_polls must be non-negative, got {self.suspect_polls}"
            )
        if self.readmit_clean_probes < 1:
            raise ValueError(
                "readmit_clean_probes must be positive, got "
                f"{self.readmit_clean_probes}"
            )
        if self.retire_failed_rounds < 1:
            raise ValueError(
                "retire_failed_rounds must be positive, got "
                f"{self.retire_failed_rounds}"
            )
        if self.max_readmissions is not None and self.max_readmissions < 0:
            raise ValueError(
                "max_readmissions must be non-negative or None, got "
                f"{self.max_readmissions}"
            )


#: Known-answer canary instructions, one per ISA opcode (Table 1):
#: ``(opcode, operand1, operand2)``; expected values come from the
#: reference ALU at probe time.
PROBE_CANARIES: Tuple[Tuple[int, int, int], ...] = (
    (0b000, 0xAA, 0x0F),  # AND
    (0b001, 0x55, 0xA0),  # OR
    (0b010, 0xFF, 0x5A),  # XOR
    (0b111, 0x9C, 0x77),  # ADD
)


@dataclass(frozen=True)
class SalvageReport:
    """Record of one cell's failover."""

    failed_cell: Coord
    cycle: int
    salvaged_words: int
    adopted: Dict[Coord, int]
    lost_words: int

    @property
    def fully_salvaged(self) -> bool:
        """True when every pending word found a new home."""
        return self.lost_words == 0


@dataclass(frozen=True)
class ProbeReport:
    """Record of one canary probe of one quarantined cell."""

    cell: Coord
    cycle: int
    passed: bool
    clean_streak: int
    failed_rounds: int
    #: State after the probe: QUARANTINED (still under observation),
    #: ACTIVE (re-admitted this probe), or RETIRED.
    outcome: CellState


class Watchdog:
    """Monitors heartbeats; quarantines silent cells and salvages their work.

    Args:
        grid: the fabric to monitor.
        memory_salvageable: model knob for whether a failed cell's router
            and memory survived (the paper's condition for salvage).  When
            False, pending work dies with the cell and only the control
            processor's retry protocol can recover it.
        policy: lifecycle knobs; the default reproduces the original
            permanent-disable watchdog exactly.
    """

    def __init__(
        self,
        grid: NanoBoxGrid,
        memory_salvageable: bool = True,
        policy: LifecyclePolicy = LifecyclePolicy(),
    ) -> None:
        self._grid = grid
        self._memory_salvageable = memory_salvageable
        self._policy = policy
        self._disabled: Set[Coord] = set()
        self._reports: List[SalvageReport] = []
        self._states: Dict[Coord, CellState] = {}
        self._silent_streak: Dict[Coord, int] = {}
        self._clean_probes: Dict[Coord, int] = {}
        self._failed_rounds: Dict[Coord, int] = {}
        self._readmission_counts: Dict[Coord, int] = {}
        self._probe_reports: List[ProbeReport] = []

    @property
    def grid(self) -> NanoBoxGrid:
        return self._grid

    @property
    def policy(self) -> LifecyclePolicy:
        return self._policy

    @property
    def disabled_cells(self) -> Tuple[Coord, ...]:
        """Cells currently out of service (quarantined or retired)."""
        return tuple(sorted(self._disabled))

    @property
    def reports(self) -> Tuple[SalvageReport, ...]:
        """Failover reports, oldest first."""
        return tuple(self._reports)

    @property
    def probe_reports(self) -> Tuple[ProbeReport, ...]:
        """Canary probe reports, oldest first."""
        return tuple(self._probe_reports)

    # ------------------------------------------------------------- lifecycle

    def state(self, coord: Coord) -> CellState:
        """Current lifecycle state of one cell."""
        return self._states.get(coord, CellState.ACTIVE)

    def cells_in_state(self, state: CellState) -> Tuple[Coord, ...]:
        """Coordinates currently in ``state``, sorted."""
        if state is CellState.ACTIVE:
            return tuple(
                sorted(
                    coord
                    for coord in self._all_coords()
                    if self.state(coord) is CellState.ACTIVE
                )
            )
        return tuple(
            sorted(c for c, s in self._states.items() if s is state)
        )

    def lifecycle_counts(self) -> Dict[str, int]:
        """``{state value: cell count}`` snapshot over the whole grid.

        Counts the cells the watchdog has moved out of ACTIVE; every
        other cell is ACTIVE.
        """
        counts = {state.value: 0 for state in CellState}
        for state in self._states.values():
            if state is not CellState.ACTIVE:
                counts[state.value] += 1
        counts[CellState.ACTIVE.value] = (
            self._grid.rows * self._grid.cols - sum(counts.values())
        )
        return counts

    @property
    def readmissions(self) -> int:
        """Total re-admissions granted across all cells."""
        return sum(self._readmission_counts.values())

    @property
    def quarantines(self) -> int:
        """Total quarantine events (salvage reports) so far."""
        return len(self._reports)

    def _all_coords(self):
        return self._grid.all_coords()

    # ---------------------------------------------------------------- polling

    def poll(self) -> List[SalvageReport]:
        """Sample every cell's heartbeat once; handle new failures.

        Returns the salvage reports generated this poll (usually empty).
        """
        new_reports: List[SalvageReport] = []
        # The grid yields only cells whose heartbeat could do anything
        # but beat, and credits the skipped quiescent beats in bulk
        # afterwards.  It may yield disabled cells too; they never beat.
        for cell in self._grid.poll_candidates():
            coord = cell.cell_id
            if coord in self._disabled:
                continue
            if cell.heartbeat.beat():
                if self.state(coord) is CellState.SUSPECT:
                    # The leaky bucket drained below threshold in time.
                    self._states[coord] = CellState.ACTIVE
                    self._silent_streak[coord] = 0
                continue
            streak = self._silent_streak.get(coord, 0) + 1
            self._silent_streak[coord] = streak
            if streak <= self._policy.suspect_polls:
                obs = get_observer()
                if obs.enabled and self.state(coord) is not CellState.SUSPECT:
                    obs.trace.emit(
                        "cell_suspect",
                        source="watchdog",
                        cell=coord,
                        cycle=self._grid.cycle,
                    )
                self._states[coord] = CellState.SUSPECT
                continue
            self._quarantine(coord)
            new_reports.append(self._fail_over(coord))
        self._reports.extend(new_reports)
        return new_reports

    def _quarantine(self, coord: Coord) -> None:
        self._disabled.add(coord)
        self._grid.on_cell_disabled(coord)
        self._silent_streak[coord] = 0
        budget = self._policy.max_readmissions
        exhausted = (
            budget is not None
            and self._readmission_counts.get(coord, 0) >= budget
        )
        if self._policy.probing and not exhausted:
            self._states[coord] = CellState.QUARANTINED
            self._clean_probes[coord] = 0
            self._failed_rounds[coord] = 0
        else:
            # The paper's one-shot semantics: disabled means forever.
            self._states[coord] = CellState.RETIRED
        obs = get_observer()
        obs.metrics.counter("watchdog.quarantines").inc()
        if self._states[coord] is CellState.RETIRED:
            obs.metrics.counter("watchdog.retirements").inc()
        if obs.enabled:
            obs.trace.emit(
                "cell_quarantined",
                source="watchdog",
                cell=coord,
                cycle=self._grid.cycle,
                outcome=self._states[coord].value,
            )
            if self._states[coord] is CellState.RETIRED:
                obs.trace.emit(
                    "cell_retired",
                    source="watchdog",
                    cell=coord,
                    cycle=self._grid.cycle,
                )

    # ---------------------------------------------------------------- probing

    def probe_quarantined(self) -> List[ProbeReport]:
        """Run one canary probe round over every quarantined cell.

        Driven by the control processor between job rounds ("the
        communication fabric surrounding the disabled processor cell"
        retains maintenance access over the mode lines even though data
        traffic has ceased).  ``policy.probing`` off makes this a no-op,
        preserving the original permanent-disable behaviour bit for bit.

        N consecutive clean probes re-admit the cell -- its heartbeat is
        revived with a clean score and it rejoins the routing, assignment,
        and salvage sets; M failed probe rounds retire it permanently.

        Every verdict is worked out first, in one canary-major batch over
        the quarantined cells in row-major order (:func:`probe_cells`);
        the bookkeeping then runs cell by cell in that same order, and
        the grid takes the round's readmitted cells back in one batch
        (:meth:`NanoBoxGrid.readmit_cells`).
        """
        if not self._policy.probing:
            return []
        obs = get_observer()
        reports: List[ProbeReport] = []
        canaries = [
            (op, a, b, reference_compute(op, a, b).value)
            for op, a, b in PROBE_CANARIES
        ]
        coords = self.cells_in_state(CellState.QUARANTINED)
        verdicts = probe_cells(
            [self._grid.cell(*coord) for coord in coords], canaries
        )
        readmitted: List[Coord] = []
        for coord, passed in zip(coords, verdicts):
            if passed:
                self._clean_probes[coord] = self._clean_probes.get(coord, 0) + 1
                if self._clean_probes[coord] >= self._policy.readmit_clean_probes:
                    self._readmit(coord)
                    readmitted.append(coord)
            else:
                self._clean_probes[coord] = 0
                self._failed_rounds[coord] = self._failed_rounds.get(coord, 0) + 1
                if self._failed_rounds[coord] >= self._policy.retire_failed_rounds:
                    self._states[coord] = CellState.RETIRED
                    obs.metrics.counter("watchdog.retirements").inc()
                    if obs.enabled:
                        obs.trace.emit(
                            "cell_retired",
                            source="watchdog",
                            cell=coord,
                            cycle=self._grid.cycle,
                        )
            obs.metrics.counter("watchdog.probes").inc()
            if not passed:
                obs.metrics.counter("watchdog.probe_failures").inc()
            if obs.enabled:
                obs.trace.emit(
                    "probe_result",
                    source="watchdog",
                    cell=coord,
                    cycle=self._grid.cycle,
                    passed=passed,
                    clean_streak=self._clean_probes[coord],
                    failed_rounds=self._failed_rounds[coord],
                    outcome=self.state(coord).value,
                )
            reports.append(
                ProbeReport(
                    cell=coord,
                    cycle=self._grid.cycle,
                    passed=passed,
                    clean_streak=self._clean_probes[coord],
                    failed_rounds=self._failed_rounds[coord],
                    outcome=self.state(coord),
                )
            )
        if readmitted:
            self._grid.readmit_cells(readmitted)
        self._probe_reports.extend(reports)
        return reports

    def _readmit(self, coord: Coord) -> None:
        """The watchdog's side of one readmission; the caller hands the
        cell back to the grid."""
        self._disabled.discard(coord)
        self._states[coord] = CellState.ACTIVE
        self._silent_streak[coord] = 0
        self._readmission_counts[coord] = (
            self._readmission_counts.get(coord, 0) + 1
        )
        obs = get_observer()
        obs.metrics.counter("watchdog.readmissions").inc()
        if obs.enabled:
            obs.trace.emit(
                "cell_readmitted",
                source="watchdog",
                cell=coord,
                cycle=self._grid.cycle,
            )

    # --------------------------------------------------------------- failover

    def _fail_over(self, coord: Coord) -> SalvageReport:
        cell = self._grid.cell(*coord)
        if not self._policy.probing:
            # Idempotent; covers threshold-exceeded cells.  With probing
            # enabled the heartbeat is left unsilenced (its over-threshold
            # score already keeps the cell out of service) so a hard kill
            # stays distinguishable from a salvageable error burst.
            cell.heartbeat.silence()
        if not self._memory_salvageable:
            pending = sum(1 for _ in cell.memory.pending_words())
            cell.memory.clear()
            return SalvageReport(
                failed_cell=coord,
                cycle=self._grid.cycle,
                salvaged_words=0,
                adopted={},
                lost_words=pending,
            )

        words = cell.extract_pending()
        if not words:
            # Nothing to place: skip building (and materialising) the
            # candidate neighbours.
            return SalvageReport(
                failed_cell=coord,
                cycle=self._grid.cycle,
                salvaged_words=0,
                adopted={},
                lost_words=0,
            )
        adopted: Dict[Coord, int] = {}
        lost = 0
        # Round-robin over alive neighbours, widening to any alive cell if
        # the immediate neighbourhood is full or dead.  Suspect,
        # quarantined, and retired cells are all excluded: the first two
        # by their silent heartbeats, the last by the disabled set.
        candidates = [
            c
            for c in self._grid.neighbours(*coord).values()
            if self._grid.cell(*c).alive and c not in self._disabled
        ]
        if not candidates:
            candidates = [
                c
                for c in self._grid.alive_cells()
                if c != coord and c not in self._disabled
            ]
        index = 0
        for word in words:
            placed = False
            for _ in range(len(candidates)):
                target = candidates[index % len(candidates)] if candidates else None
                index += 1
                if target is None:
                    break
                try:
                    self._grid.cell(*target).adopt_word(word)
                    adopted[target] = adopted.get(target, 0) + 1
                    placed = True
                    break
                except CellFullError:
                    continue
            if not placed:
                lost += 1
        return SalvageReport(
            failed_cell=coord,
            cycle=self._grid.cycle,
            salvaged_words=len(words),
            adopted=adopted,
            lost_words=lost,
        )
