"""Lowering of batched ALU object graphs to a flat kernel plan.

The compiled tier evaluates a unit through one tight loop over packed
``uint64`` fault words -- no NumPy fancy indexing, no per-node Python.
To make that loop generic over all twelve Table 2 variants, the unit is
*lowered* once into three flat arrays:

* ``header`` -- ``int64[16]``: composition kind, descriptor offsets,
  absolute site-base offsets of every redundancy segment;
* ``ipool`` -- ``int64[]``: descriptors (LUT schemes, netlist gate
  plans, offset tables) referenced by index from the header;
* ``bpool`` -- ``uint8[]``: byte tables (truth tables, syndrome
  false-positive tables).

The same plan drives both the pure-Python reference interpreter
(:mod:`repro.kernels.interp`, also the Numba JIT target) and the
generated C kernel (:mod:`repro.kernels.csrc`) -- one data format, two
executors, bit-identical by construction.

Lowering starts from :func:`repro.alu.batched.build_batched_unit`'s
object graph rather than the scalar unit: the batched classes already
hold the validated segment geometry (LUT offsets, netlist gate plans,
redundancy spans), so the compiled tier is structurally identical to
the batched tier and automatically restricted to the same unit family.
Units without a batched form lower to ``None`` and the campaign falls
back, exactly like the batched path does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Composition kinds (header[0]).
COMP_SIMPLEX = 0
COMP_SPACE = 1
COMP_TIME = 2

#: Coded-LUT schemes (lut descriptor field 0).
LUT_IDENTITY = 0
LUT_REPETITION = 1
LUT_SYNDROME = 2

#: Core / voter descriptor kinds (descriptor field 0).
NODE_LUT = 0
NODE_NETLIST = 1

#: Gate type codes shared by interpreter and C source.
GATE_NOT = 0
GATE_BUF = 1
GATE_AND = 2
GATE_OR = 3
GATE_XOR = 4
GATE_NAND = 5
GATE_NOR = 6

#: Signal source kinds (match repro.logic.batched's plan encoding).
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


@dataclass(frozen=True)
class KernelPlan:
    """One unit, flattened for the compiled evaluators."""

    header: np.ndarray  # int64[16]
    ipool: np.ndarray  # int64[]
    bpool: np.ndarray  # uint8[]
    site_count: int
    scratch_size: int


class _Unloweable(Exception):
    """Internal signal: no compiled form; fall back to the batched tier."""


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


_GATE_CODES: Dict[str, int] = {
    "NOT": GATE_NOT,
    "BUF": GATE_BUF,
    "AND": GATE_AND,
    "OR": GATE_OR,
    "XOR": GATE_XOR,
    "NAND": GATE_NAND,
    "NOR": GATE_NOR,
}

_INPUT_NAME = re.compile(r"^([a-z]+?)(\d*)$")


def _lower_lut(b: _Builder, kernel) -> int:
    """Lower one BatchedLUT to a 10-slot descriptor; returns its offset."""
    from repro.lut.batched import (
        _IdentityBatchedLUT,
        _RepetitionBatchedLUT,
        _SyndromeBatchedLUT,
    )

    truth = np.asarray(kernel._truth_out, dtype=np.uint8)
    truth_off = b.badd(truth.tolist())
    desc = [0, int(kernel.total_bits), truth_off, int(truth.size)] + [0] * 6
    if isinstance(kernel, _IdentityBatchedLUT):
        desc[0] = LUT_IDENTITY
    elif isinstance(kernel, _RepetitionBatchedLUT):
        positions = np.asarray(kernel._positions, dtype=np.int64)
        desc[0] = LUT_REPETITION
        desc[4] = int(kernel._copies)
        desc[5] = b.iadd(positions.reshape(-1).tolist())
    elif isinstance(kernel, _SyndromeBatchedLUT):
        desc[0] = LUT_SYNDROME
        desc[4] = int(kernel._block_size)
        desc[5] = int(kernel._code_bits)
        desc[6] = b.iadd(kernel._stored_offsets.tolist())
        desc[7] = b.iadd(kernel._data_positions.tolist())
        desc[8] = b.badd(kernel._false_positive.astype(np.uint8).tolist())
        desc[9] = b.iadd(kernel._columns.tolist())
    else:  # pragma: no cover - new BatchedLUT subclasses fall back
        raise _Unloweable
    return b.iadd(desc)


def _lower_netlist(
    b: _Builder,
    netlist,
    var_map: Dict[str, int],
    out_names: Sequence[str],
) -> int:
    """Lower one BatchedNetlist to a 7-slot descriptor; returns its offset."""
    gates: List[int] = []
    for gate_type, sources in netlist._plan:
        code = _GATE_CODES.get(gate_type.name)
        if code is None:  # pragma: no cover - exhaustive GateType today
            raise _Unloweable
        gates.append(code)
        gates.append(len(sources))
        for kind, index in sources:
            gates.append(kind)
            gates.append(index)
    gates_off = b.iadd(gates)

    invar: List[int] = []
    for name in netlist._input_names:
        match = _INPUT_NAME.match(name)
        if match is None or match.group(1) not in var_map:
            raise _Unloweable
        invar.append(var_map[match.group(1)])
        invar.append(int(match.group(2) or 0))
    n_inputs = len(netlist._input_names)
    if n_inputs > INPUT_SCRATCH:  # pragma: no cover - 27 max in practice
        raise _Unloweable
    invar_off = b.iadd(invar)

    by_name = dict(netlist._outputs)
    outs: List[int] = []
    for name in out_names:
        source = by_name.get(name)
        if source is None:
            raise _Unloweable
        outs.append(source[0])
        outs.append(source[1])
    out_off = b.iadd(outs)

    node_count = int(netlist.node_count)
    b.max_nodes = max(b.max_nodes, node_count)
    return b.iadd(
        [node_count, len(netlist._plan), gates_off, n_inputs, invar_off,
         out_off, len(out_names)]
    )


def _lower_core(b: _Builder, core) -> int:
    """Lower a batched core to a 6-slot descriptor; returns its offset."""
    from repro.alu.batched import _BatchedCMOS, _BatchedNanoBox

    if isinstance(core, _BatchedNanoBox):
        result_desc = _lower_lut(b, core._result_kernel)
        carry_desc = _lower_lut(b, core._carry_kernel)
        r_off = b.iadd(core._result_offsets)
        c_off = b.iadd(core._carry_offsets)
        return b.iadd(
            [NODE_LUT, result_desc, carry_desc, r_off, c_off, core._width]
        )
    if isinstance(core, _BatchedCMOS):
        out_names = [f"out{i}" for i in range(core._width)] + ["carry"]
        net_desc = _lower_netlist(
            b, core._netlist, {"a": 0, "b": 1, "op": 2}, out_names
        )
        return b.iadd([NODE_NETLIST, net_desc, 0, 0, 0, core._width])
    raise _Unloweable


def _lower_voter(b: _Builder, voter) -> int:
    """Lower a batched voter to a 4-slot descriptor; returns its offset."""
    from repro.alu.batched import _BatchedCMOSVoter, _BatchedLUTVoter

    if isinstance(voter, _BatchedLUTVoter):
        lut_desc = _lower_lut(b, voter._kernel)
        offsets_off = b.iadd(voter._offsets)
        return b.iadd([NODE_LUT, lut_desc, offsets_off, voter._width])
    if isinstance(voter, _BatchedCMOSVoter):
        out_names = [f"v{i}" for i in range(voter._width)]
        net_desc = _lower_netlist(
            b, voter._netlist, {"x": 0, "y": 1, "z": 2}, out_names
        )
        return b.iadd([NODE_NETLIST, net_desc, 0, voter._width])
    raise _Unloweable


def build_plan(unit) -> Optional[KernelPlan]:
    """Lower a campaign compute unit, or return ``None`` to fall back.

    Accepts exactly the units :func:`repro.alu.batched.build_batched_unit`
    accepts (all twelve Table 2 variants plus the ablation studies'
    LUT/netlist units, every syndrome decoder included); everything else
    -- gate-level Hamming decoders, parity -- returns ``None`` so callers
    degrade to the batched/scalar tiers.  A defective part lowers to its
    pristine design's plan, unchanged: its defects are a mask overlay
    applied by :func:`repro.kernels.engine.build_compiled_unit`'s engine.
    """
    from repro.alu.batched import (
        _INTERNAL_LUT,
        _BatchedSimplex,
        _BatchedSpaceRedundant,
        _BatchedTimeRedundant,
        build_batched_unit,
    )
    from repro.faults.defects import DefectiveUnit

    if isinstance(unit, DefectiveUnit):
        return build_plan(unit.pristine_unit)

    engine = build_batched_unit(unit)
    if engine is None:
        return None
    root = engine._root

    b = _Builder()
    header = [0] * HEADER_LEN
    header[H_VOTER] = -1
    try:
        if isinstance(root, _BatchedSimplex):
            header[H_COMP] = COMP_SIMPLEX
            header[H_CORE] = _lower_core(b, root._core)
            header[H_BASE0] = root._offset
        elif isinstance(root, _BatchedSpaceRedundant):
            header[H_COMP] = COMP_SPACE
            header[H_CORE] = _lower_core(b, root._core)
            header[H_VOTER] = _lower_voter(b, root._voter)
            for i, (offset, _size) in enumerate(root._copy_spans):
                header[H_BASE0 + i] = offset
            header[H_VOTER_BASE] = root._voter_span[0]
        elif isinstance(root, _BatchedTimeRedundant):
            header[H_COMP] = COMP_TIME
            header[H_CORE] = _lower_core(b, root._core)
            header[H_VOTER] = _lower_voter(b, root._voter)
            for i, (offset, _size) in enumerate(root._pass_spans):
                header[H_BASE0 + i] = offset
            header[H_VOTER_BASE] = root._voter_span[0]
            for i, offset in enumerate(root._storage_offsets):
                header[H_STORE0 + i] = offset
        else:
            # A bare core (no redundancy wrapper) evaluates as a
            # zero-offset simplex.
            header[H_COMP] = COMP_SIMPLEX
            header[H_CORE] = _lower_core(b, root)
            header[H_BASE0] = 0
    except _Unloweable:
        return None

    header[H_SITES] = engine.site_count
    header[H_IMAP] = b.iadd(np.asarray(_INTERNAL_LUT, dtype=np.int64).tolist())
    scratch = b.max_nodes + INPUT_SCRATCH
    header[H_SCRATCH] = scratch
    return KernelPlan(
        header=np.array(header, dtype=np.int64),
        ipool=np.array(b.ipool or [0], dtype=np.int64),
        bpool=np.array(b.bpool or [0], dtype=np.uint8),
        site_count=engine.site_count,
        scratch_size=scratch,
    )
