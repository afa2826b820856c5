"""The assembled NanoBox processor cell.

Combines the 32-word memory, the ALU control loop, the heartbeat
generator, and the cell's position in the grid's ID space.  All cells
switch between the three global modes together under control-processor
command (paper Section 3.2): *shift-in* (accept instruction packets),
*compute* (loop over memory executing pending words), *shift-out*
(emit result packets upward).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

from repro.alu.base import FaultableUnit
from repro.cell.aluctrl import (
    ALUControl,
    MaskSource,
    StepOutcome,
    StepReport,
    _no_faults,
    run_canary,
    step_all,
)
from repro.cell.heartbeat import Heartbeat
from repro.cell.memory import CELL_MEMORY_WORDS, CellMemory
from repro.cell.memword import MemoryWord


class CellMode(enum.Enum):
    """The three global operating modes (paper Section 3.2).

    "Each processor cell has three mode signals, only one of which can be
    high at a time."
    """

    SHIFT_IN = "shift_in"
    COMPUTE = "compute"
    SHIFT_OUT = "shift_out"


class CellFullError(RuntimeError):
    """Raised when an instruction arrives at a cell with no free word."""


def compute_cells(cells: Sequence["ProcessorCell"]) -> List[bool]:
    """One compute tick over alive cells, their ALU work batched.

    Every cell's ALU control prepares its next word in the order given,
    the copies of all prepared executions run together
    (:func:`~repro.cell.aluctrl.step_all`), and each cell then finishes
    in order: it stores its copies and charges its heartbeat for a
    rejected word or a copy disagreement.  Each cell ends in the state
    :meth:`ProcessorCell.compute_step` (the one-cell case) leaves it in.
    Returns, per cell, whether it computed a word.
    """
    reports = step_all([cell.aluctrl for cell in cells])
    return [cell._charge(report) for cell, report in zip(cells, reports)]


def probe_cells(cells: Sequence["ProcessorCell"], canaries) -> List[bool]:
    """Probe cells with known-answer canaries; one verdict per cell.

    Each canary is ``(opcode, operand1, operand2, expected)``.  A cell
    whose heartbeat was force-silenced by a hard failure cannot respond
    at all; otherwise every canary must compute to its expected value
    (through a genuine per-execution fault mask) for the probe to pass.

    The pass is canary-major: canary *i* runs as one :func:`run_canary`
    batch over the cells still passing, in the order given, and the
    failures drop out.  Each cell's own mask stream is consumed exactly
    as a short-circuiting per-cell ``all()`` would: a force-silenced
    cell draws no mask, a cell failing canary *i* (0-based) has drawn
    *i* + 1, and a passing cell one per canary.
    """
    live = [
        index
        for index, cell in enumerate(cells)
        if not cell.heartbeat.forced_silent
    ]
    for op, a, b, expected in canaries:
        if not live:
            break
        values = run_canary([cells[i].aluctrl for i in live], op, a, b)
        live = [i for i, value in zip(live, values) if value == expected]
    verdicts = [False] * len(cells)
    for index in live:
        verdicts[index] = True
    return verdicts


class ProcessorCell:
    """One cell of the NanoBox Processor Grid.

    Args:
        row: paper-coordinate row address (decreases moving away from the
            control processor).
        col: paper-coordinate column address (decreases moving right).
        alu: the cell's ALU core.
        mask_source: per-execution transient-fault mask supplier.
        n_words: memory size (32 in the paper).
        error_threshold: heartbeat error budget before the cell silences.
        heartbeat_decay: leaky-bucket decay per heartbeat cycle (0 keeps
            the legacy monotone error tally).
    """

    def __init__(
        self,
        row: int,
        col: int,
        alu: FaultableUnit,
        mask_source: MaskSource = _no_faults,
        n_words: int = CELL_MEMORY_WORDS,
        error_threshold: int = 8,
        heartbeat_decay: float = 0.0,
    ) -> None:
        if row < 0 or col < 0:
            raise ValueError(f"cell ID ({row}, {col}) must be non-negative")
        self._row = row
        self._col = col
        self.memory = CellMemory(n_words)
        self.aluctrl = ALUControl(self.memory, alu, mask_source)
        self.heartbeat = Heartbeat(error_threshold, decay=heartbeat_decay)
        self._mode = CellMode.SHIFT_IN
        self._shift_out_pointer = 0
        self._rejected_packets = 0

    # ------------------------------------------------------------- identity

    @property
    def row(self) -> int:
        return self._row

    @property
    def col(self) -> int:
        return self._col

    @property
    def cell_id(self) -> Tuple[int, int]:
        """(row, column) address used by the routing rule."""
        return (self._row, self._col)

    # ----------------------------------------------------------------- mode

    @property
    def mode(self) -> CellMode:
        return self._mode

    def set_mode(self, mode: CellMode) -> None:
        """Switch operating mode (driven globally by the control processor)."""
        self._mode = mode
        if mode is CellMode.COMPUTE:
            self.aluctrl.reset()
        elif mode is CellMode.SHIFT_OUT:
            self._shift_out_pointer = 0

    @property
    def alive(self) -> bool:
        """True while the heartbeat is healthy."""
        return self.heartbeat.healthy

    @property
    def rejected_packets(self) -> int:
        """Instruction packets dropped because memory was full."""
        return self._rejected_packets

    # ------------------------------------------------------------- shift-in

    def store_instruction(
        self, instruction_id: int, opcode: int, operand1: int, operand2: int
    ) -> int:
        """Save an arriving instruction into the first free memory word.

        Returns the word index used.

        Raises:
            CellFullError: when all words hold valid data.
        """
        slot = self.memory.free_slot()
        if slot is None:
            self._rejected_packets += 1
            raise CellFullError(
                f"cell {self.cell_id} memory full "
                f"({self.memory.n_words} words)"
            )
        word = MemoryWord(
            instruction_id=instruction_id,
            opcode=opcode,
            operand1=operand1,
            operand2=operand2,
            data_valid=True,
            to_be_computed=True,
        )
        self.memory.write(slot, word)
        return slot

    def adopt_word(self, word: MemoryWord) -> int:
        """Accept a salvaged memory word from a failed neighbour.

        The word arrives with its ``to_be_computed`` state intact, so the
        compute loop picks it up on its next pass (paper Section 3.2.2).
        """
        slot = self.memory.free_slot()
        if slot is None:
            raise CellFullError(f"cell {self.cell_id} cannot adopt: memory full")
        self.memory.write(slot, word)
        return slot

    # -------------------------------------------------------------- compute

    def compute_step(self) -> bool:
        """Advance the ALU-control loop one word; returns True if computed.

        Result-copy disagreements count against the heartbeat's error
        budget -- they are the cell's self-detected errors.
        """
        if not self.alive:
            return False
        return compute_cells((self,))[0]

    def _charge(self, report: StepReport) -> bool:
        """Charge one step's detected errors to the heartbeat.

        Returns True if the step computed a word.
        """
        if report.outcome is StepOutcome.REJECTED:
            self.heartbeat.record_error()
            return False
        if report.copies_disagree:
            self.heartbeat.record_error()
        return report.outcome is StepOutcome.COMPUTED

    # ------------------------------------------------------------ shift-out

    def pop_result(self) -> Optional[Tuple[int, int]]:
        """Emit the next completed word as ``(instruction_id, result)``.

        The result is the majority vote of the word's three stored copies
        (paper Section 3.2.3).  The word is erased once emitted.  Returns
        ``None`` when nothing remains to send.
        """
        memory = self.memory
        while self._shift_out_pointer < memory.n_words:
            index = self._shift_out_pointer
            self._shift_out_pointer += 1
            raw = memory.read_raw(index)
            if MemoryWord.flags(raw) == (True, False):
                word = MemoryWord.unpack(raw)
                memory.erase(index)
                return (word.instruction_id, word.result)
        return None

    def fast_forward_shift_out(self) -> None:
        """Mark the shift-out scan exhausted (event-driven catch-up).

        Equivalent to the ``pop_result`` calls an empty cell would have
        absorbed: the first call races the pointer to ``n_words`` and
        every later one returns immediately, so a cell with no completed
        words ends any shift-out span with the pointer pinned here.
        """
        self._shift_out_pointer = self.memory.n_words

    # --------------------------------------------------------------- probing

    def probe(self, canaries) -> bool:
        """Run known-answer canary instructions through the cell's ALU.

        The one-cell case of :func:`probe_cells`, which the watchdog's
        probe rounds call over every quarantined cell at once.
        """
        return probe_cells((self,), canaries)[0]

    # -------------------------------------------------------------- salvage

    def extract_pending(self) -> List[MemoryWord]:
        """Remove and return all words still awaiting computation.

        Used during failover: "the contents of the cell memory will be
        sent to the surrounding processor cells so that they can finish
        any outstanding computations" (paper Section 2.3).
        """
        salvaged: List[MemoryWord] = []
        for index in list(self.memory.pending_words()):
            salvaged.append(self.memory.read(index))
            self.memory.erase(index)
        return salvaged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessorCell(id={self.cell_id}, mode={self._mode.value}, "
            f"occupied={self.memory.occupancy()}, alive={self.alive})"
        )
