"""The nbox-aluctrl unit (paper Section 3.3).

In compute mode the ALU control "reads a word from the nbox-memory and
computes the majority value of the three data-valid bits.  If the memory
word contains valid data, nbox-aluctrl computes the majority value of the
three to-be-computed bits.  If the memory word contains valid data which
has yet to be computed, nbox-aluctrl sends the two operands and the opcode
to nbox-alu" -- then writes the result copies back and clears the
to-be-computed flag, looping over the memory for as long as the cell stays
in compute mode (salvaged work from failed neighbours appears as new words
with the flag set, so the loop re-examines every word each pass).
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.alu.base import FaultableUnit, Opcode
from repro.cell.memory import CellMemory
from repro.cell.memword import MemoryWord
from repro.faults.packing import WORD_DTYPE, words_for_sites

#: Provides a fresh ALU fault mask per computation (paper Section 4).
MaskSource = Callable[[], int]

#: ``(ops, a, b, words) -> values``: one batch of executions over packed
#: ``uint64`` mask rows, returning the 8-bit result values.
BatchEvaluator = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray
]


def _no_faults() -> int:
    return 0


#: Probe evaluators, one per shared ALU object (None: the unit does not
#: lower, so its probes stay scalar).  Weakly keyed, so a grid's design
#: unit and its engine are dropped together.
_PROBE_EVALUATORS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def probe_evaluator(unit: FaultableUnit) -> Optional[BatchEvaluator]:
    """The batch evaluator probe rounds run ``unit`` on, built once per unit.

    An :class:`~repro.kernels.AcceleratedUnit`'s own compiled engine,
    else the unit's plan engine (the C kernel when live, else NumPy).  A
    defective part gets its defect overlay from the same seam.  Returns
    ``None`` when the unit does not lower.
    """
    try:
        return _PROBE_EVALUATORS[unit]
    except KeyError:
        pass
    from repro.kernels import AcceleratedUnit, build_engine

    engine = (
        unit.engine if isinstance(unit, AcceleratedUnit) else build_engine(unit)
    )
    evaluate = None if engine is None else engine.values_words
    _PROBE_EVALUATORS[unit] = evaluate
    return evaluate


def evaluate_rows(
    units: Sequence[FaultableUnit],
    ops: Sequence[int],
    a: Sequence[int],
    b: Sequence[int],
    masks: Sequence[int],
    batch_evaluator: Callable[[FaultableUnit, int], Optional[BatchEvaluator]],
) -> List[int]:
    """Result values of ALU executions, batched by shared unit.

    Row *i* runs ``ops[i]`` on ``a[i]``, ``b[i]`` through ``units[i]``
    under fault mask ``masks[i]``.  The rows whose unit is one object
    run as one batch on ``batch_evaluator(unit, n_rows)``.  A unit it
    returns ``None`` for, and a group holding a mask the unit's site
    space cannot hold, run the scalar ``compute`` row by row (which
    owns the canonical errors).  Returns the values in row order.
    """
    values = [0] * len(units)
    groups: Dict[int, List[int]] = {}
    for index, unit in enumerate(units):
        groups.setdefault(id(unit), []).append(index)
    for members in groups.values():
        unit = units[members[0]]
        n_sites = unit.site_count
        rows = [masks[i] for i in members]
        evaluate = None
        if all(0 <= m and not m >> n_sites for m in rows):
            evaluate = batch_evaluator(unit, len(members))
        if evaluate is None:
            for i in members:
                values[i] = unit.compute(
                    ops[i], a[i], b[i], fault_mask=masks[i]
                ).value
            continue
        n, n_words = len(rows), words_for_sites(n_sites)
        words = np.frombuffer(
            b"".join(m.to_bytes(8 * n_words, "little") for m in rows),
            dtype=WORD_DTYPE,
        ).reshape(n, n_words)
        batch = evaluate(
            np.array([ops[i] for i in members], dtype=np.int64),
            np.array([a[i] for i in members], dtype=np.int64),
            np.array([b[i] for i in members], dtype=np.int64),
            words,
        )
        for i, value in zip(members, batch.tolist()):
            values[i] = value
    return values


def _probe_batch(unit: FaultableUnit, n_rows: int) -> Optional[BatchEvaluator]:
    """Probe rounds batch a unit shared by several cells on any tier."""
    return probe_evaluator(unit) if n_rows > 1 else None


def _compute_batch(unit: FaultableUnit, n_rows: int) -> Optional[BatchEvaluator]:
    """Compute ticks batch an :class:`~repro.kernels.AcceleratedUnit`
    on its own engine; any other unit stays on scalar ``compute``."""
    from repro.kernels import AcceleratedUnit

    return unit.engine.values_words if isinstance(unit, AcceleratedUnit) else None


def run_canary(
    controls: Sequence["ALUControl"], opcode: int, operand1: int, operand2: int
) -> List[int]:
    """Execute one canary instruction on every control's ALU.

    Draws exactly one mask from each control's own stream, in the order
    given, then evaluates: the controls that share one ALU object run
    as a single batch on that unit's :func:`probe_evaluator`; a unit
    held by one control, a unit that does not lower, and any mask the
    unit's site space cannot hold run the scalar ``compute`` (see
    :func:`evaluate_rows`).  Returns the result values in order.
    """
    masks = [control.mask_source() for control in controls]
    n = len(controls)
    return evaluate_rows(
        [control.alu for control in controls],
        [opcode] * n,
        [operand1] * n,
        [operand2] * n,
        masks,
        _probe_batch,
    )


def step_all(controls: Sequence["ALUControl"]) -> Iterator["StepReport"]:
    """Step every control once, their ALU work evaluated together.

    Every control prepares its next word in the order given (drawing
    its copies' masks from its own stream), then the copies of all
    prepared executions run through :func:`evaluate_rows`: one batch
    per shared :class:`~repro.kernels.AcceleratedUnit`, scalar
    ``compute`` for any other unit.  Each control finishes as its
    report is taken, in order.  Draws, stored words and reports equal
    those of stepping the controls one after the other.
    """
    prepared = [control.prepare() for control in controls]
    units: List[FaultableUnit] = []
    ops: List[int] = []
    a: List[int] = []
    b: List[int] = []
    masks: List[int] = []
    for control, item in zip(controls, prepared):
        if isinstance(item, Execution):
            for mask in item.masks:
                units.append(control.alu)
                ops.append(item.opcode)
                a.append(item.operand1)
                b.append(item.operand2)
                masks.append(mask)
    values = iter(evaluate_rows(units, ops, a, b, masks, _compute_batch))
    for control, item in zip(controls, prepared):
        if isinstance(item, Execution):
            item = control.finish(
                item, tuple(next(values) for _ in item.masks)
            )
        yield item


class StepOutcome(enum.Enum):
    """What one ALU-control step did."""

    #: Word empty or already computed; pointer advanced.
    SKIPPED = "skipped"
    #: Word computed, results written back, flag cleared.
    COMPUTED = "computed"
    #: Word looked valid but held an undecodable opcode -- dropped.
    REJECTED = "rejected"


@dataclass(frozen=True)
class StepReport:
    """Diagnostic record of one ALU-control step."""

    word_index: int
    outcome: StepOutcome
    result_copies: Optional[Tuple[int, int, int]] = None

    @property
    def copies_disagree(self) -> bool:
        """True when the three generated result copies were not identical.

        Disagreement is the module level *detecting* an error; the majority
        vote at shift-out is what masks it.
        """
        if self.result_copies is None:
            return False
        return len(set(self.result_copies)) > 1


class Execution(NamedTuple):
    """A prepared ALU execution: the first half of a compute step.

    Word ``index`` holds a valid, pending instruction; ``masks`` are the
    fault masks of its result copies, already drawn from the control's
    stream.
    """

    index: int
    opcode: int
    operand1: int
    operand2: int
    masks: Tuple[int, ...]


class ALUControl:
    """Cycles through cell memory computing pending instructions.

    Args:
        memory: the cell's 32-word memory.
        alu: the cell's ALU (any :class:`~repro.alu.base.FaultableUnit`).
        mask_source: called once per ALU execution to draw that execution's
            transient-fault mask; defaults to fault-free.
        copies: result copies generated per instruction (the paper's module
            level generates three, concurrently or serially).
        field_voter: optional LUT-built control-flag voter (paper §7's
            control-logic-in-LUTs future work).  When supplied, the
            data-valid / to-be-computed verdicts are taken through its
            fault-prone tables instead of ideal majority gates.
        control_mask_source: per-step fault mask over the field voter's
            sites; defaults to fault-free.
    """

    def __init__(
        self,
        memory: CellMemory,
        alu: FaultableUnit,
        mask_source: MaskSource = _no_faults,
        copies: int = 3,
        field_voter=None,
        control_mask_source: MaskSource = _no_faults,
    ) -> None:
        if copies < 1 or copies % 2 == 0:
            raise ValueError(f"copies must be a positive odd number, got {copies}")
        self._memory = memory
        self._alu = alu
        self._mask_source = mask_source
        self._copies = copies
        self._field_voter = field_voter
        self._control_mask_source = control_mask_source
        self._pointer = 0
        self._computed_total = 0
        self._disagreements = 0
        self._control_misreads = 0

    @property
    def alu(self) -> FaultableUnit:
        return self._alu

    @property
    def mask_source(self) -> MaskSource:
        """The per-execution fault-mask supplier."""
        return self._mask_source

    @property
    def pointer(self) -> int:
        """Next memory word the control will examine."""
        return self._pointer

    @property
    def computed_total(self) -> int:
        """Instructions computed since construction."""
        return self._computed_total

    @property
    def disagreements(self) -> int:
        """Computations whose result copies disagreed (detected errors)."""
        return self._disagreements

    @property
    def control_misreads(self) -> int:
        """Steps where the fault-prone field voter's verdict differed
        from the ideal majority (only counted with a field voter)."""
        return self._control_misreads

    def reset(self) -> None:
        """Return the scan pointer to word zero."""
        self._pointer = 0

    def sync_pointer(self, value: int) -> None:
        """Set the scan pointer directly (event-driven catch-up).

        The event-driven grid skips the per-tick SKIPPED scans of idle
        cells; when such a cell acquires work mid-phase the grid fast
        forwards the pointer to where a per-tick loop would have left
        it.
        """
        if not 0 <= value < self._memory.n_words:
            raise ValueError(f"pointer {value} out of range")
        self._pointer = value

    def prepare(self) -> Union[StepReport, Execution]:
        """First half of :meth:`step`: examine one word, draw its masks.

        Advances the pointer with wrap-around and reads the word's voted
        flags (through the field voter, when there is one).  A word that
        is not valid and pending is SKIPPED; a valid one whose opcode an
        upset pushed outside the ISA is REJECTED (its flag is cleared so
        the loop cannot wedge on it).  Either way the report comes back
        at once.  Otherwise the copies' fault masks are drawn and the
        returned :class:`Execution` awaits :meth:`finish`.
        """
        index = self._pointer
        self._pointer = (index + 1) % self._memory.n_words

        raw = self._memory.read_raw(index)
        flags = MemoryWord.flags(raw)
        if self._field_voter is None:
            data_valid, to_be_computed = flags
        else:
            data_valid, to_be_computed = self._field_voter.classify_word(
                raw, fault_mask=self._control_mask_source()
            )
            if (data_valid, to_be_computed) != flags:
                self._control_misreads += 1
        if not data_valid or not to_be_computed:
            return StepReport(index, StepOutcome.SKIPPED)
        word = MemoryWord.unpack(raw)
        try:
            Opcode.from_int(word.opcode)
        except ValueError:
            # The watchdog counts this via the cell's error tally.
            self._memory.write_raw(index, MemoryWord.clear_to_be_computed(raw))
            return StepReport(index, StepOutcome.REJECTED)
        masks = tuple(self._mask_source() for _ in range(self._copies))
        return Execution(index, word.opcode, word.operand1, word.operand2, masks)

    def finish(self, execution: Execution, copies: Sequence[int]) -> StepReport:
        """Second half of :meth:`step`: store the result copies.

        ``copies`` are the values of ``execution``'s rows, one per mask.
        Writes them into the word and clears its ``to_be_computed`` flag.
        """
        index = execution.index
        stored = tuple(copies[:3])
        raw = self._memory.read_raw(index)
        raw = MemoryWord.store_results(raw, stored)
        raw = MemoryWord.clear_to_be_computed(raw)
        self._memory.write_raw(index, raw)

        self._computed_total += 1
        report = StepReport(index, StepOutcome.COMPUTED, result_copies=stored)
        if report.copies_disagree:
            self._disagreements += 1
        return report

    def step(self) -> StepReport:
        """Examine one memory word; compute it if valid and pending.

        Advances the pointer with wrap-around, mirroring the hardware's
        endless compute-mode loop.  The one-control case of
        :func:`step_all`.
        """
        return next(step_all((self,)))

    def sweep(self) -> int:
        """Run one full pass over the memory; returns instructions computed."""
        start_computed = self._computed_total
        for _ in range(self._memory.n_words):
            self.step()
        return self._computed_total - start_computed

    def drain(self, max_sweeps: int = 64) -> int:
        """Sweep until no pending work remains; returns total computed.

        Raises:
            RuntimeError: if pending work remains after ``max_sweeps``
                passes (indicates a stuck word).
        """
        total = 0
        for _ in range(max_sweeps):
            total += self.sweep()
            if not any(True for _ in self._memory.pending_words()):
                return total
        raise RuntimeError(f"pending work remains after {max_sweeps} sweeps")
