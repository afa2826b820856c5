"""Batched (vectorized) evaluation of the Table 2 ALU family.

Mirrors the scalar object graph -- NanoBox slice network or CMOS gate
netlist core, module-level redundancy wrappers, LUT or gate voter -- but
evaluates a whole workload's instructions against a whole trial's fault
masks in NumPy, using the vectorized coded-LUT kernels of
:mod:`repro.lut.batched` and the compiled netlist evaluator of
:mod:`repro.logic.batched`.

Every node consumes its own slice of the ``(n, site_count)`` fault-bit
array -- columns correspond one-to-one to the scalar path's
:class:`~repro.faults.sites.Segment` layout -- and produces the ``(n,)``
array of 9-bit result bundles.  The ripple carry forces a loop over the
eight slices (and the netlist a loop over its gates), but each iteration
now retires *every* instruction of the trial at once instead of one LUT
read or one gate.

A manufactured part (:class:`~repro.faults.defects.DefectiveUnit`) runs
on its pristine design's engine behind a
:class:`~repro.faults.defects.DefectOverlay` that applies the stuck-at
map to each batch's flag rows.  :func:`build_batched_unit` returns
``None`` for units it cannot vectorize (gate-level Hamming decoders,
parity, and parts built on them); the campaign engine then
falls back to the scalar path, so batched campaigns work -- and stay
bit-identical -- for every registered variant.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.alu.base import BUNDLE_BITS, INTERNAL_OPCODE, RESULT_BITS
from repro.alu.cmos import CMOSALU
from repro.alu.nanobox import NanoBoxALU
from repro.alu.redundancy import (
    MODULE_COPIES,
    SimplexALU,
    SpaceRedundantALU,
    TimeRedundantALU,
)
from repro.alu.voters import CMOSVoter, LUTVoter
from repro.logic.batched import BatchedNetlist
from repro.lut.batched import build_batched_lut

#: Architectural opcode -> internal 2-bit code, as a vector lookup table
#: (-1 marks invalid opcodes).
_INTERNAL_LUT = np.full(8, -1, dtype=np.int64)
for _opcode, _internal in INTERNAL_OPCODE.items():
    _INTERNAL_LUT[int(_opcode)] = _internal

_RESULT_MASK = (1 << RESULT_BITS) - 1


class BatchedUnit:
    """A vectorized compute node bound to a local fault-site layout."""

    def bundles(
        self,
        ops: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        fault_bits: np.ndarray,
    ) -> np.ndarray:
        """Evaluate the batch; ``fault_bits`` is this node's local slice.

        ``ops`` carries the *architectural* 3-bit opcodes (already
        validated); each core maps them to its own encoding.
        """
        raise NotImplementedError


class _BatchedNanoBox(BatchedUnit):
    """The eight-slice ripple network over vectorized coded-LUT reads."""

    def __init__(self, alu: NanoBoxALU) -> None:
        self._width = alu.width
        self._result_kernel = build_batched_lut(alu.result_lut)
        self._carry_kernel = build_batched_lut(alu.carry_lut)
        if self._result_kernel is None or self._carry_kernel is None:
            raise _Unvectorizable
        space = alu.site_space
        self._result_offsets = [
            space.segment(f"slice{i}.result_lut").offset
            for i in range(self._width)
        ]
        self._carry_offsets = [
            space.segment(f"slice{i}.carry_lut").offset
            for i in range(self._width)
        ]
        self._lut_bits = self._result_kernel.total_bits

    def bundles(self, ops, a, b, fault_bits):
        n = a.shape[0]
        op_addr = _INTERNAL_LUT[ops] << 3
        carry = np.zeros(n, dtype=np.int64)
        value = np.zeros(n, dtype=np.int64)
        lut_bits = self._lut_bits
        for i in range(self._width):
            address = (
                ((a >> i) & 1) | (((b >> i) & 1) << 1) | (carry << 2) | op_addr
            )
            r_off = self._result_offsets[i]
            c_off = self._carry_offsets[i]
            bit = self._result_kernel.read_batch(
                address, fault_bits[:, r_off : r_off + lut_bits]
            )
            carry = self._carry_kernel.read_batch(
                address, fault_bits[:, c_off : c_off + lut_bits]
            ).astype(np.int64)
            value |= bit.astype(np.int64) << i
        return value | (carry << RESULT_BITS)


class _BatchedCMOS(BatchedUnit):
    """The gate-netlist baseline ALU, compiled for batch evaluation."""

    def __init__(self, alu: CMOSALU) -> None:
        self._width = alu.width
        self._netlist = BatchedNetlist(alu.netlist)

    def bundles(self, ops, a, b, fault_bits):
        inputs: Dict[str, np.ndarray] = {}
        for i in range(self._width):
            inputs[f"a{i}"] = ((a >> i) & 1).astype(np.uint8)
            inputs[f"b{i}"] = ((b >> i) & 1).astype(np.uint8)
        for j in range(3):
            inputs[f"op{j}"] = ((ops >> j) & 1).astype(np.uint8)
        outputs = self._netlist.evaluate_bus(inputs, ("out",), fault_bits)
        return outputs["out"] | (outputs["carry"] << RESULT_BITS)


class _BatchedLUTVoter:
    """Vectorized nine-table majority voter (enable tied high)."""

    def __init__(self, voter: LUTVoter) -> None:
        self._kernel = build_batched_lut(voter.lut)
        if self._kernel is None:
            raise _Unvectorizable
        self._width = voter.width
        space = voter.site_space
        self._offsets = [
            space.segment(f"bit{i}").offset for i in range(self._width)
        ]
        self._lut_bits = self._kernel.total_bits

    def vote(self, x, y, z, fault_bits):
        out = np.zeros(x.shape[0], dtype=np.int64)
        lut_bits = self._lut_bits
        for i in range(self._width):
            address = (
                ((x >> i) & 1)
                | (((y >> i) & 1) << 1)
                | (((z >> i) & 1) << 2)
                | (1 << 3)  # enable tied high during compute mode
            )
            off = self._offsets[i]
            bit = self._kernel.read_batch(
                address, fault_bits[:, off : off + lut_bits]
            )
            out |= bit.astype(np.int64) << i
        return out


class _BatchedCMOSVoter:
    """Vectorized gate-level majority voter (nine 9-node cells)."""

    def __init__(self, voter: CMOSVoter) -> None:
        self._width = voter.width
        self._netlist = BatchedNetlist(voter.netlist)

    def vote(self, x, y, z, fault_bits):
        inputs: Dict[str, np.ndarray] = {}
        for i in range(self._width):
            inputs[f"x{i}"] = ((x >> i) & 1).astype(np.uint8)
            inputs[f"y{i}"] = ((y >> i) & 1).astype(np.uint8)
            inputs[f"z{i}"] = ((z >> i) & 1).astype(np.uint8)
        outputs = self._netlist.evaluate_bus(inputs, ("v",), fault_bits)
        return outputs["v"]


class _BatchedSimplex(BatchedUnit):
    def __init__(self, alu: SimplexALU, core: BatchedUnit) -> None:
        self._core = core
        segment = alu.site_space.segment("core")
        self._offset, self._size = segment.offset, segment.size

    def bundles(self, ops, a, b, fault_bits):
        local = fault_bits[:, self._offset : self._offset + self._size]
        return self._core.bundles(ops, a, b, local)


class _BatchedSpaceRedundant(BatchedUnit):
    def __init__(
        self,
        alu: SpaceRedundantALU,
        core: BatchedUnit,
        voter,
    ) -> None:
        self._core = core
        self._voter = voter
        space = alu.site_space
        self._copy_spans = [
            (seg.offset, seg.size)
            for seg in (
                space.segment(f"copy{i}") for i in range(MODULE_COPIES)
            )
        ]
        voter_seg = space.segment("voter")
        self._voter_span = (voter_seg.offset, voter_seg.size)

    def bundles(self, ops, a, b, fault_bits):
        copies = [
            self._core.bundles(
                ops, a, b, fault_bits[:, off : off + size]
            )
            for off, size in self._copy_spans
        ]
        v_off, v_size = self._voter_span
        return self._voter.vote(
            copies[0], copies[1], copies[2],
            fault_bits[:, v_off : v_off + v_size],
        )


class _BatchedTimeRedundant(BatchedUnit):
    def __init__(
        self,
        alu: TimeRedundantALU,
        core: BatchedUnit,
        voter,
    ) -> None:
        self._core = core
        self._voter = voter
        space = alu.site_space
        self._pass_spans = [
            (seg.offset, seg.size)
            for seg in (
                space.segment(f"pass{i}") for i in range(MODULE_COPIES)
            )
        ]
        voter_seg = space.segment("voter")
        self._voter_span = (voter_seg.offset, voter_seg.size)
        self._storage_offsets = [
            space.segment(f"stored{i}").offset for i in range(MODULE_COPIES)
        ]
        self._bundle_powers = (1 << np.arange(BUNDLE_BITS, dtype=np.int64))

    def bundles(self, ops, a, b, fault_bits):
        stored: List[np.ndarray] = []
        for (off, size), reg_off in zip(
            self._pass_spans, self._storage_offsets
        ):
            bundle = self._core.bundles(
                ops, a, b, fault_bits[:, off : off + size]
            )
            # Bit flips in the holding register corrupt the stored copy.
            register = (
                fault_bits[:, reg_off : reg_off + BUNDLE_BITS].astype(np.int64)
                * self._bundle_powers[None, :]
            ).sum(axis=1)
            stored.append(bundle ^ register)
        v_off, v_size = self._voter_span
        return self._voter.vote(
            stored[0], stored[1], stored[2],
            fault_bits[:, v_off : v_off + v_size],
        )


class _Unvectorizable(Exception):
    """Internal signal: this unit has no batched form; fall back to scalar."""


class BatchedEngine:
    """Campaign-facing wrapper: whole-unit batched instruction evaluation."""

    def __init__(self, root: BatchedUnit, site_count: int) -> None:
        self._root = root
        self._site_count = site_count

    @property
    def site_count(self) -> int:
        return self._site_count

    def bundles(
        self,
        ops: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        fault_bits: np.ndarray,
    ) -> np.ndarray:
        """9-bit result bundles (value | carry << 8) for a batch.

        Args:
            ops: ``(n,)`` architectural 3-bit opcodes.
            a, b: ``(n,)`` 8-bit operands.
            fault_bits: ``(n, site_count)`` 0/1 fault flags, one row per
                instruction (the trial's mask stream).
        """
        ops = np.asarray(ops, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if np.any((ops < 0) | (ops > 7)):
            raise ValueError("opcode out of 3-bit range in batch")
        internal = _INTERNAL_LUT[ops]
        if np.any(internal < 0):
            bad = int(ops[internal < 0][0])
            raise ValueError(f"invalid opcode {bad:#05b} in batch")
        if np.any((a < 0) | (a > _RESULT_MASK)):
            raise ValueError("operand a out of 8-bit range in batch")
        if np.any((b < 0) | (b > _RESULT_MASK)):
            raise ValueError("operand b out of 8-bit range in batch")
        if fault_bits.shape != (ops.shape[0], self._site_count):
            raise ValueError(
                f"fault_bits shape {fault_bits.shape} != "
                f"({ops.shape[0]}, {self._site_count})"
            )
        return self._root.bundles(ops, a, b, fault_bits)

    def values(
        self,
        ops: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        fault_bits: np.ndarray,
    ) -> np.ndarray:
        """8-bit result values (the campaign's scoring quantity)."""
        return self.bundles(ops, a, b, fault_bits) & _RESULT_MASK


def _build_core(core) -> BatchedUnit:
    if isinstance(core, NanoBoxALU):
        return _BatchedNanoBox(core)
    if isinstance(core, CMOSALU):
        return _BatchedCMOS(core)
    raise _Unvectorizable


def _build_voter(voter):
    if isinstance(voter, LUTVoter):
        return _BatchedLUTVoter(voter)
    if isinstance(voter, CMOSVoter):
        return _BatchedCMOSVoter(voter)
    raise _Unvectorizable


def build_batched_unit(unit) -> Optional[BatchedEngine]:
    """Vectorize a campaign compute unit, or return ``None`` to fall back.

    Supported: :class:`NanoBoxALU` cores whose coding schemes have
    batched kernels and :class:`CMOSALU` gate-netlist cores, under any of
    the Simplex / Space / Time redundancy wrappers with LUT or CMOS
    voters -- i.e. all twelve Table 2 variants -- and defective parts of
    any of these, as a defect overlay on the pristine design's engine.
    Anything else (gate-level Hamming decoders, parity) signals scalar
    fallback.
    """
    from repro.faults.defects import DefectiveUnit

    if isinstance(unit, DefectiveUnit):
        engine = build_batched_unit(unit.pristine_unit)
        return None if engine is None else unit.overlay(engine, packed=False)
    try:
        if isinstance(unit, SimplexALU):
            root: BatchedUnit = _BatchedSimplex(unit, _build_core(unit.core))
        elif isinstance(unit, SpaceRedundantALU):
            root = _BatchedSpaceRedundant(
                unit, _build_core(unit.core), _build_voter(unit.voter)
            )
        elif isinstance(unit, TimeRedundantALU):
            root = _BatchedTimeRedundant(
                unit, _build_core(unit.core), _build_voter(unit.voter)
            )
        else:
            root = _build_core(unit)
    except _Unvectorizable:
        return None
    return BatchedEngine(root, unit.site_count)
