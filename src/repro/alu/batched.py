"""The ``batched`` tier: lowered kernel plans run by a NumPy executor.

:class:`BatchedEngine` evaluates a :class:`~repro.kernels.plan.KernelPlan`
-- the very arrays the C kernel reads -- over a whole batch of
instructions at once.  The plan's descriptors and gate lists are decoded
once per engine into a tree of closures with every fault site resolved
to an absolute (word, bit) pair; a call then walks that tree once,
retiring every row of the batch per LUT read or per gate.  The ripple
carry still forces a loop over the eight slices, and a netlist a loop
over its gates.

Sites are read in place from the packed mask rows -- site ``i`` of row
``r`` is bit ``i % 64`` of ``words[r, i // 64]`` -- so no per-site flag
array is ever materialised.  LUT reads view the words as ``int64``: an
arithmetic right shift by ``i % 64`` leaves site ``i`` at bit 0, and
only bit 0 of a shifted word is ever used.  Netlist nodes are ``uint8``
rows fed from the byte holding each gate's site; they carry that byte's
upper bits along, since AND/OR/XOR/NOT act on each bit independently,
and the outputs keep bit 0 alone.

The NumPy executor is the fallback when no C compiler is available;
results are bit-identical to the C kernel and to the scalar units.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.alu.base import BUNDLE_BITS
from repro.kernels.engine import PlanEngine
from repro.kernels.plan import (
    COMP_SIMPLEX,
    COMP_TIME,
    GATE_AND,
    GATE_NAND,
    GATE_NOR,
    GATE_NOT,
    GATE_OR,
    GATE_XOR,
    H_BASE0,
    H_COMP,
    H_CORE,
    H_STORE0,
    H_VOTER,
    H_VOTER_BASE,
    LUT_IDENTITY,
    LUT_REPETITION,
    NODE_LUT,
    SRC_GATE,
    SRC_INPUT,
    KernelPlan,
)


class _Rows:
    """One call's batch: operands, and the packed mask rows read in place."""

    def __init__(self, ops, internal, a, b, words: np.ndarray) -> None:
        self.ops = ops
        self.internal = internal
        self.a = a
        self.b = b
        self.words = words.view(np.int64)
        self.bytes = words.view(np.uint8)
        self._flat = self.words.reshape(-1)
        self._row_base = np.arange(words.shape[0], dtype=np.int64) * words.shape[1]
        self._slice_addresses: Optional[np.ndarray] = None

    def bits(self, word: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """Per-row site bits: row ``r`` reads ``word[r]``/``shift[r]``
        (trailing axes read several sites per row)."""
        row_base = self._row_base.reshape((-1,) + (1,) * (word.ndim - 1))
        return (np.take(self._flat, row_base + word) >> shift) & 1

    def slice_addresses(self, width: int) -> np.ndarray:
        """``(width, n)`` LUT addresses of each ALU slice before its carry
        in: ``a_s | b_s << 1 | internal opcode << 3``.  Shared by every
        copy of the core."""
        if self._slice_addresses is None:
            s = np.arange(width, dtype=np.int64)[:, None]
            self._slice_addresses = (
                ((self.a >> s) & 1)
                | (((self.b >> s) & 1) << 1)
                | (self.internal << 3)
            )
        return self._slice_addresses


def _split(sites: np.ndarray):
    """Absolute site numbers as ``(word index, bit shift)`` tables."""
    sites = np.asarray(sites, dtype=np.int64)
    return sites >> 6, sites & 63


def _pool(pool: np.ndarray, offset: int, count: int) -> np.ndarray:
    return np.asarray(pool[offset : offset + count], dtype=np.int64)


#: ``read(rows, addresses) -> delivered bits`` of one LUT instance.
_LUTRead = Callable[[_Rows, np.ndarray], np.ndarray]


def _lut(ipool: np.ndarray, bpool: np.ndarray, lut: int, base: int) -> _LUTRead:
    """One coded LUT whose stored bits start at absolute site ``base``."""
    size = int(ipool[lut + 3])
    truth = _pool(bpool, int(ipool[lut + 2]), size)
    addresses = np.arange(size, dtype=np.int64)
    scheme = int(ipool[lut])
    if scheme == LUT_IDENTITY:
        word, shift = _split(base + addresses)

        def read(rows, addr):
            return truth[addr] ^ rows.bits(word[addr], shift[addr])

        return read

    if scheme == LUT_REPETITION:
        copies = int(ipool[lut + 4])
        positions = _pool(ipool, int(ipool[lut + 5]), size * copies)
        word, shift = _split(base + positions.reshape(size, copies))
        majority = copies // 2

        def read(rows, addr):
            ones = rows.bits(word[addr], shift[addr]).sum(axis=1)
            return truth[addr] ^ (ones > majority)

        return read

    # Syndrome decoder: the syndrome is the XOR of the parity-check
    # columns of the addressed block's set fault bits; the delivered bit
    # is the raw fault at the data position, flipped again on a
    # correction (syndrome == that position's column) or a false
    # positive of the scheme.
    block_size = int(ipool[lut + 4])
    code_bits = int(ipool[lut + 5])
    columns = _pool(ipool, int(ipool[lut + 9]), code_bits)
    n_blocks = -(-size // block_size)
    block_offsets = _pool(ipool, int(ipool[lut + 6]), n_blocks)
    data_positions = _pool(ipool, int(ipool[lut + 7]), block_size)
    false_positive = _pool(
        bpool, int(ipool[lut + 8]), 1 << int(columns.max()).bit_length()
    ).astype(bool)
    block_base = base + block_offsets[addresses // block_size]
    data_column = data_positions[addresses % block_size]
    own_column = columns[data_column]
    word, shift = _split(block_base[:, None] + np.arange(code_bits))
    raw_word, raw_shift = _split(block_base + data_column)

    def read(rows, addr):
        block = rows.bits(word[addr], shift[addr])
        syndrome = np.bitwise_xor.reduce(block * columns, axis=1)
        corrector = (syndrome == own_column[addr]) | false_positive[syndrome]
        raw = rows.bits(raw_word[addr], raw_shift[addr])
        return truth[addr] ^ raw ^ corrector

    return read


#: ``run(rows, (v0, v1, v2)) -> packed output bits`` of one netlist instance.
_NetlistRun = Callable[[_Rows, Sequence[np.ndarray]], np.ndarray]


def _netlist(ipool: np.ndarray, net: int, base: int) -> _NetlistRun:
    """One gate netlist whose node ``g`` is the fault site ``base + g``.

    Values live in one list of slots: the constants 0 and 1, then the
    primary inputs, then the gate nodes in topological order.  Nodes are
    ``uint8`` rows; a node's fault bit is read from the byte of the
    little-endian mask row holding its site.
    """
    n_gates = int(ipool[net + 1])
    n_inputs = int(ipool[net + 3])
    invar = _pool(ipool, int(ipool[net + 4]), 2 * n_inputs).reshape(-1, 2)
    inputs = [(int(var), int(bit)) for var, bit in invar]

    def slot(kind: int, index: int) -> int:
        if kind == SRC_GATE:
            return 2 + n_inputs + index
        if kind == SRC_INPUT:
            return 2 + index
        return 1 if index else 0

    gates = []
    p = int(ipool[net + 2])
    for g in range(n_gates):
        code, n_src = int(ipool[p]), int(ipool[p + 1])
        sources = [
            slot(int(ipool[p + 2 + 2 * k]), int(ipool[p + 3 + 2 * k]))
            for k in range(n_src)
        ]
        p += 2 + 2 * n_src
        site = base + g
        gates.append((code, sources[0], sources[1:], site >> 3, site & 7))
    n_out = int(ipool[net + 6])
    outputs = _pool(ipool, int(ipool[net + 5]), 2 * n_out).reshape(-1, 2)
    out_slots = [slot(int(kind), int(index)) for kind, index in outputs]

    def run(rows, sources):
        row_bytes = rows.bytes
        values: List = [0, 1]
        values.extend((sources[var] >> bit).astype(np.uint8) for var, bit in inputs)
        for code, first, rest, byte, shift in gates:
            value = values[first]
            if code == GATE_AND or code == GATE_NAND:
                for s in rest:
                    value = value & values[s]
            elif code == GATE_OR or code == GATE_NOR:
                for s in rest:
                    value = value | values[s]
            elif code == GATE_XOR:
                for s in rest:
                    value = value ^ values[s]
            if code == GATE_NOT or code == GATE_NAND or code == GATE_NOR:
                value = value ^ 1
            values.append(value ^ (row_bytes[:, byte] >> shift))
        bundle = np.zeros(row_bytes.shape[0], dtype=np.int64)
        for o, s in enumerate(out_slots):
            bundle |= np.bitwise_and(values[s], 1).astype(np.int64) << o
        return bundle

    return run


#: ``run(rows) -> 9-bit bundles`` of one ALU core instance.
_CoreRun = Callable[[_Rows], np.ndarray]


def _core(ipool: np.ndarray, bpool: np.ndarray, core: int, base: int) -> _CoreRun:
    """One ALU core whose segment starts at absolute site ``base``."""
    width = int(ipool[core + 5])
    if int(ipool[core]) != NODE_LUT:
        netlist = _netlist(ipool, int(ipool[core + 1]), base)
        return lambda rows: netlist(rows, (rows.a, rows.b, rows.ops))

    r_off, c_off = int(ipool[core + 3]), int(ipool[core + 4])
    slices = [
        (
            _lut(ipool, bpool, int(ipool[core + 1]), base + int(ipool[r_off + s])),
            _lut(ipool, bpool, int(ipool[core + 2]), base + int(ipool[c_off + s])),
        )
        for s in range(width)
    ]

    def run(rows):
        addresses = rows.slice_addresses(width)
        value = np.zeros(rows.a.shape[0], dtype=np.int64)
        carry = 0
        for s, (result, carry_out) in enumerate(slices):
            address = addresses[s] | (carry << 2)
            value |= result(rows, address) << s
            carry = carry_out(rows, address)
        return value | (carry << 8)

    return run


def _voter(ipool: np.ndarray, bpool: np.ndarray, voter: int, base: int):
    """The majority voter, ``run(rows, x, y, z) -> voted bundles``."""
    if int(ipool[voter]) != NODE_LUT:
        netlist = _netlist(ipool, int(ipool[voter + 1]), base)
        return lambda rows, x, y, z: netlist(rows, (x, y, z))

    width = int(ipool[voter + 3])
    offsets = _pool(ipool, int(ipool[voter + 2]), width)
    bits = [
        _lut(ipool, bpool, int(ipool[voter + 1]), base + int(offset))
        for offset in offsets
    ]
    s = np.arange(width, dtype=np.int64)[:, None]

    def run(rows, x, y, z):
        # Enable (address bit 3) is tied high during compute mode.
        addresses = (
            ((x >> s) & 1) | (((y >> s) & 1) << 1) | (((z >> s) & 1) << 2) | 8
        )
        out = np.zeros(x.shape[0], dtype=np.int64)
        for i, read in enumerate(bits):
            out |= read(rows, addresses[i]) << i
        return out

    return run


def _register(site: int) -> Callable[[_Rows], np.ndarray]:
    """The 9-bit holding register at absolute sites ``site ..``."""
    word, shift = site >> 6, site & 63
    spill = shift + BUNDLE_BITS - 64
    mask = (1 << BUNDLE_BITS) - 1

    def read(rows):
        value = rows.words[:, word] >> shift
        if spill > 0:
            high = rows.words[:, word + 1] & ((1 << spill) - 1)
            value = (value & ((1 << (64 - shift)) - 1)) | (high << (64 - shift))
        return value & mask

    return read


def _decode(plan: KernelPlan) -> _CoreRun:
    """The whole plan as one ``run(rows) -> bundles`` closure."""
    header, ipool, bpool = plan.header, plan.ipool, plan.bpool
    comp = int(header[H_COMP])
    copies = 1 if comp == COMP_SIMPLEX else 3
    cores = [
        _core(ipool, bpool, int(header[H_CORE]), int(header[H_BASE0 + i]))
        for i in range(copies)
    ]
    if comp == COMP_SIMPLEX:
        return cores[0]
    voter = _voter(
        ipool, bpool, int(header[H_VOTER]), int(header[H_VOTER_BASE])
    )
    if comp == COMP_TIME:
        # Bit flips in a holding register corrupt that pass's stored copy.
        registers = [_register(int(header[H_STORE0 + i])) for i in range(3)]

        def run(rows):
            x, y, z = (
                core(rows) ^ register(rows)
                for core, register in zip(cores, registers)
            )
            return voter(rows, x, y, z)

        return run

    def run(rows):
        x, y, z = (core(rows) for core in cores)
        return voter(rows, x, y, z)

    return run


class BatchedEngine(PlanEngine):
    """A plan run by the NumPy executor (the ``batched`` tier)."""

    tier = "batched"

    def __init__(self, plan: KernelPlan) -> None:
        super().__init__(plan)
        self._run = _decode(plan)

    def bundles_words(self, ops, a, b, words):
        """The batch through the decoded plan (see
        :meth:`~repro.kernels.engine.PlanEngine.bundles_words`)."""
        ops, a, b, words = self._batch(ops, a, b, words)
        rows = _Rows(ops, self._internal_map[ops], a, b, words)
        return self._run(rows)
