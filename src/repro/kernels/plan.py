"""Lowering of the scalar ALU units to a flat kernel plan.

The batched and compiled tiers evaluate a unit over packed ``uint64``
fault words, one whole batch of instructions at a time.  To make that
evaluation generic over all twelve Table 2 variants, the unit is
*lowered* once into three flat arrays:

* ``header`` -- ``int64[16]``: composition kind, descriptor offsets,
  absolute site-base offsets of every redundancy segment;
* ``ipool`` -- ``int64[]``: descriptors (LUT schemes, netlist gate
  plans, offset tables) referenced by index from the header;
* ``bpool`` -- ``uint8[]``: byte tables (truth tables, syndrome
  false-positive tables).

The plan is the only lowered form, and it has two executors: the
generated C kernel (:mod:`repro.kernels.csrc`) and the NumPy executor
(:class:`repro.alu.batched.BatchedEngine`).  Both read the same arrays,
so the tiers stay bit-identical by construction.

Lowering walks the scalar units themselves -- the module box,
NanoBox and CMOS cores, LUT and gate voters, coded LUTs and gate
netlists -- and reads the segment geometry from their site spaces.  A
unit outside that family (gate-level Hamming decoders, parity, and the
parts built on them) lowers to ``None``; the campaign then evaluates it
with the scalar ``compute``, with identical results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.alu.base import INTERNAL_OPCODE
from repro.alu.cmos import CMOSALU
from repro.alu.nanobox import NanoBoxALU
from repro.alu.redundancy import ModuleBox
from repro.alu.voters import CMOSVoter, LUTVoter
from repro.coding import HammingCode, HsiaoCode, IdentityCode, RepetitionCode
from repro.logic.gates import GateType, SignalKind
from repro.lut.coded import CodedLUT

#: Composition kinds (header[0]).
COMP_SIMPLEX = 0
COMP_SPACE = 1
COMP_TIME = 2

#: Module-box composition -> composition kind.
_COMP_KINDS = {"none": COMP_SIMPLEX, "space": COMP_SPACE, "time": COMP_TIME}

#: Coded-LUT schemes (lut descriptor field 0).
LUT_IDENTITY = 0
LUT_REPETITION = 1
LUT_SYNDROME = 2

#: Core / voter descriptor kinds (descriptor field 0).
NODE_LUT = 0
NODE_NETLIST = 1

#: Gate type codes shared by both executors.
GATE_NOT = 0
GATE_BUF = 1
GATE_AND = 2
GATE_OR = 3
GATE_XOR = 4
GATE_NAND = 5
GATE_NOR = 6

#: Signal source kinds of a netlist gate operand.
SRC_GATE = 0
SRC_INPUT = 1
SRC_CONST = 2

#: Scratch bytes reserved for netlist primary-input values, beyond the
#: per-gate node values.  Largest real netlist input set is the CMOS
#: voter's 27 (x0..8, y0..8, z0..8).
INPUT_SCRATCH = 64

#: Header slot assignments (int64[16]).
H_COMP = 0
H_CORE = 1
H_VOTER = 2
H_BASE0 = 3  # .. H_BASE2 = 5: copy/pass segment offsets
H_VOTER_BASE = 6
H_STORE0 = 7  # .. H_STORE2 = 9: holding-register offsets (time only)
H_SITES = 10
H_IMAP = 11
H_SCRATCH = 12

HEADER_LEN = 16

#: Architectural opcode -> internal 2-bit code (-1 marks invalid opcodes).
_INTERNAL_LUT = np.full(8, -1, dtype=np.int64)
for _opcode, _internal in INTERNAL_OPCODE.items():
    _INTERNAL_LUT[int(_opcode)] = _internal


@dataclass(frozen=True)
class KernelPlan:
    """One unit, flattened for the plan executors."""

    header: np.ndarray  # int64[16]
    ipool: np.ndarray  # int64[]
    bpool: np.ndarray  # uint8[]
    site_count: int
    scratch_size: int


class _Unloweable(Exception):
    """Internal signal: no lowered form; the unit stays scalar."""


class _Builder:
    def __init__(self) -> None:
        self.ipool: List[int] = []
        self.bpool: List[int] = []
        self.max_nodes = 0

    def iadd(self, values: Sequence[int]) -> int:
        offset = len(self.ipool)
        self.ipool.extend(int(v) for v in values)
        return offset

    def badd(self, values: Sequence[int]) -> int:
        offset = len(self.bpool)
        self.bpool.extend(int(v) & 0xFF for v in values)
        return offset


_GATE_CODES: Dict[GateType, int] = {
    GateType.NOT: GATE_NOT,
    GateType.BUF: GATE_BUF,
    GateType.AND: GATE_AND,
    GateType.OR: GATE_OR,
    GateType.XOR: GATE_XOR,
    GateType.NAND: GATE_NAND,
    GateType.NOR: GATE_NOR,
}

_SRC_KINDS: Dict[SignalKind, int] = {
    SignalKind.GATE: SRC_GATE,
    SignalKind.INPUT: SRC_INPUT,
}

_INPUT_NAME = re.compile(r"^([a-z]+?)(\d*)$")

#: Which nonzero syndromes each positional Hamming scheme's output
#: corrector flips on whatever the address, given the code length ``n``.
_HAMMING_FALSE_POSITIVES = {
    # Check-bit and out-of-range syndromes: the paper's ``alunh`` loss.
    "hamming": lambda syn, n: syn > n or syn & (syn - 1) == 0,
    "hamming-fp": lambda syn, n: True,
    "hamming-sec": lambda syn, n: False,
}


def _syndrome_tables(scheme: str, code) -> Optional[tuple]:
    """One block's ``(columns, data positions, false positives)``, or
    ``None`` for a decoder that is not a syndrome decoder.

    Every syndrome decoder is XOR-linear in the fault word: the stored
    image is a codeword, so the syndrome of ``codeword ^ fault`` is the
    XOR of the parity-check columns of the set fault bits.  The
    delivered bit is the raw fault at the addressed data position,
    flipped again when the syndrome equals that position's column (a
    correction) or is a false positive of the scheme.

    Positional Hamming gives stored bit ``k`` column ``k + 1``.  Hsiao
    gives data bit ``i`` its odd-weight column and check bit ``j`` the
    unit column ``1 << j``, with no false positives: an even
    (double-error) syndrome matches no column and never corrects.
    """
    if scheme == "hsiao" and isinstance(code, HsiaoCode):
        checks = code.total_bits - code.data_bits
        columns = code.columns + tuple(1 << j for j in range(checks))
        return columns, tuple(range(code.data_bits)), (False,) * (1 << checks)
    rule = _HAMMING_FALSE_POSITIVES.get(scheme)
    if rule is None or not isinstance(code, HammingCode):
        return None
    n = code.total_bits
    false_positive = (False,) + tuple(
        rule(syn, n) for syn in range(1, 1 << len(code.check_positions))
    )
    return tuple(range(1, n + 1)), code.data_positions, false_positive


def _repetition_positions(code: RepetitionCode) -> List[int]:
    """Stored position of every (data bit, copy), data-bit major.

    All copies store the same truth bit ``t``, and for odd ``N`` majority
    commutes with complement, so a read flips exactly when most of the
    addressed bit's copies are faulty.
    """
    return [
        code.position(copy, index)
        for index in range(code.data_bits)
        for copy in range(code.copies)
    ]


def _lower_lut(b: _Builder, lut) -> int:
    """Lower one coded LUT to a 10-slot descriptor; returns its offset."""
    if not isinstance(lut, CodedLUT):
        raise _Unloweable
    truth = lut.truth.outputs_array()
    truth_off = b.badd(truth.tolist())
    desc = [0, int(lut.total_bits), truth_off, int(truth.size)] + [0] * 6
    blocks = lut.blocks
    first = blocks[0][0]
    if isinstance(first, IdentityCode):
        desc[0] = LUT_IDENTITY
    elif isinstance(first, RepetitionCode):
        desc[0] = LUT_REPETITION
        desc[4] = first.copies
        desc[5] = b.iadd(_repetition_positions(first))
    else:
        # The descriptor holds one block's tables, so every block must
        # share one code shape (always true when the table size is a
        # block-size multiple).
        tables = {_syndrome_tables(lut.scheme, code) for code, _, _ in blocks}
        if len(tables) != 1 or None in tables:
            raise _Unloweable
        columns, data_positions, false_positive = tables.pop()
        desc[0] = LUT_SYNDROME
        desc[4] = lut.block_size
        desc[5] = len(columns)
        desc[6] = b.iadd([offset for _, offset, _ in blocks])
        desc[7] = b.iadd(data_positions)
        desc[8] = b.badd(false_positive)
        desc[9] = b.iadd(columns)
    return b.iadd(desc)


def _source(sig) -> Tuple[int, int]:
    return _SRC_KINDS.get(sig.kind, SRC_CONST), sig.index


def _lower_netlist(
    b: _Builder,
    netlist,
    var_map: Dict[str, int],
    out_names: Sequence[str],
) -> int:
    """Lower one gate netlist to a 7-slot descriptor; returns its offset."""
    gates: List[int] = []
    for gate in netlist.gates:
        gates.append(_GATE_CODES[gate.gate_type])
        gates.append(len(gate.inputs))
        for sig in gate.inputs:
            gates.extend(_source(sig))
    gates_off = b.iadd(gates)

    invar: List[int] = []
    for name in netlist.input_names:
        match = _INPUT_NAME.match(name)
        if match is None or match.group(1) not in var_map:
            raise _Unloweable
        invar.append(var_map[match.group(1)])
        invar.append(int(match.group(2) or 0))
    n_inputs = len(netlist.input_names)
    if n_inputs > INPUT_SCRATCH:  # pragma: no cover - 27 max in practice
        raise _Unloweable
    invar_off = b.iadd(invar)

    by_name = dict(netlist.outputs)
    outs: List[int] = []
    for name in out_names:
        if name not in by_name:
            raise _Unloweable
        outs.extend(_source(by_name[name]))
    out_off = b.iadd(outs)

    node_count = int(netlist.node_count)
    b.max_nodes = max(b.max_nodes, node_count)
    return b.iadd(
        [node_count, len(netlist.gates), gates_off, n_inputs, invar_off,
         out_off, len(out_names)]
    )


def _segment_offsets(space, names: Sequence[str]) -> List[int]:
    return [space.segment(name).offset for name in names]


def _lower_core(b: _Builder, core) -> int:
    """Lower an ALU core to a 6-slot descriptor; returns its offset."""
    if isinstance(core, NanoBoxALU):
        width = core.width
        result_desc = _lower_lut(b, core.result_lut)
        carry_desc = _lower_lut(b, core.carry_lut)
        r_off = b.iadd(_segment_offsets(
            core.site_space, [f"slice{i}.result_lut" for i in range(width)]
        ))
        c_off = b.iadd(_segment_offsets(
            core.site_space, [f"slice{i}.carry_lut" for i in range(width)]
        ))
        return b.iadd([NODE_LUT, result_desc, carry_desc, r_off, c_off, width])
    if isinstance(core, CMOSALU):
        out_names = [f"out{i}" for i in range(core.width)] + ["carry"]
        net_desc = _lower_netlist(
            b, core.netlist, {"a": 0, "b": 1, "op": 2}, out_names
        )
        return b.iadd([NODE_NETLIST, net_desc, 0, 0, 0, core.width])
    raise _Unloweable


def _lower_voter(b: _Builder, voter) -> int:
    """Lower a majority voter to a 4-slot descriptor; returns its offset."""
    if isinstance(voter, LUTVoter):
        lut_desc = _lower_lut(b, voter.lut)
        offsets_off = b.iadd(_segment_offsets(
            voter.site_space, [f"bit{i}" for i in range(voter.width)]
        ))
        return b.iadd([NODE_LUT, lut_desc, offsets_off, voter.width])
    if isinstance(voter, CMOSVoter):
        out_names = [f"v{i}" for i in range(voter.width)]
        net_desc = _lower_netlist(
            b, voter.netlist, {"x": 0, "y": 1, "z": 2}, out_names
        )
        return b.iadd([NODE_NETLIST, net_desc, 0, voter.width])
    raise _Unloweable


def build_plan(unit) -> Optional[KernelPlan]:
    """Lower a campaign compute unit, or return ``None`` (stay scalar).

    Accepts :class:`NanoBoxALU` cores whose coding schemes lower and
    :class:`CMOSALU` gate-netlist cores, bare or inside one
    :class:`~repro.alu.redundancy.ModuleBox` of any composition with a
    LUT or CMOS voter -- all twelve Table 2 variants plus the ablation
    studies' units, every syndrome decoder included.  Gate-level Hamming
    decoders and parity (and parts built on them), and boxes nested in
    boxes, return ``None``.  A defective part lowers to its pristine
    design's plan, unchanged: its defects are a mask overlay applied by
    :func:`repro.kernels.engine.build_engine`.
    """
    from repro.faults.defects import DefectiveUnit

    if isinstance(unit, DefectiveUnit):
        return build_plan(unit.pristine_unit)

    b = _Builder()
    header = [0] * HEADER_LEN
    header[H_VOTER] = -1
    try:
        if isinstance(unit, ModuleBox):
            header[H_COMP] = _COMP_KINDS[unit.composition]
            header[H_CORE] = _lower_core(b, unit.core)
            bases = [seg.offset for seg in unit.copy_segments]
            header[H_BASE0 : H_BASE0 + len(bases)] = bases
            if unit.voter is not None:
                header[H_VOTER] = _lower_voter(b, unit.voter)
                header[H_VOTER_BASE] = unit.voter_segment.offset
            stores = [seg.offset for seg in unit.stored_segments]
            header[H_STORE0 : H_STORE0 + len(stores)] = stores
        else:
            # A bare core evaluates as a zero-offset simplex.
            header[H_COMP] = COMP_SIMPLEX
            header[H_CORE] = _lower_core(b, unit)
    except _Unloweable:
        return None

    header[H_SITES] = unit.site_count
    header[H_IMAP] = b.iadd(_INTERNAL_LUT.tolist())
    scratch = b.max_nodes + INPUT_SCRATCH
    header[H_SCRATCH] = scratch
    return KernelPlan(
        header=np.array(header, dtype=np.int64),
        ipool=np.array(b.ipool or [0], dtype=np.int64),
        bpool=np.array(b.bpool or [0], dtype=np.uint8),
        site_count=unit.site_count,
        scratch_size=scratch,
    )
