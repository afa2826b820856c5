"""Vectorized coded-LUT reads over batches of fault words.

The scalar path decodes one ``CodedLUT.read`` at a time with Python big
integers; a fault campaign performs tens of such reads per instruction and
thousands of instructions per figure cell.  This module evaluates a whole
batch of reads -- one per workload instruction -- in NumPy.

The enabling observation: every supported decoder is *XOR-linear in the
fault word*.  The stored image is a valid codeword, so

* the addressed raw bit is ``truth_bit ^ fault_bit_at_data_position``, and
* the syndrome of ``codeword ^ fault`` equals the syndrome of ``fault``
  alone (``syndrome`` is GF(2)-linear and zero on codewords): the XOR of
  the parity-check columns of the set fault bits.

Hence a batched read reduces to ``truth[addr] ^ flip(addr, fault_bits)``
where ``flip`` is a scheme-specific pure function of the fault bits --
a handful of fancy-indexing gathers per read batch, with no per-draw
big-integer arithmetic at all.

Schemes covered: ``none`` (identity), every replicated layout
(``tmr``/``tmr-interleaved``/``5mr``/``7mr``), and every syndrome decoder
-- the paper-calibrated ``hamming`` output corrector, ``hamming-fp``,
textbook ``hamming-sec`` and Hsiao SEC-DED ``hsiao`` -- as one kind that
differs only in its column and false-positive tables.  The two remaining
schemes (``parity``, ``hamming-gate``) fall back to the scalar path:
:func:`build_batched_lut` returns ``None`` and the campaign engine
degrades gracefully.

Every kernel is bit-identical to ``CodedLUT.read`` -- asserted exhaustively
by the equivalence test suite.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.coding import HammingCode, HsiaoCode, IdentityCode, RepetitionCode
from repro.lut.coded import CodedLUT


@lru_cache(maxsize=8)
def _rows(n: int) -> np.ndarray:
    """Cached read-only ``arange(n)`` row index (one per batch length)."""
    rows = np.arange(n, dtype=np.intp)
    rows.setflags(write=False)
    return rows


class BatchedLUT:
    """Vectorized read interface over one coded lookup table.

    ``read_batch(addresses, fault_bits)`` takes an ``(n,)`` int array of
    truth-table addresses and an ``(n, total_bits)`` uint8 0/1 array of
    per-read fault bits (the LUT's slice of each draw's mask) and returns
    the ``(n,)`` uint8 array of delivered bits.
    """

    def __init__(self, lut: CodedLUT) -> None:
        self._truth_out = lut.truth.outputs_array()
        self._total_bits = lut.total_bits

    @property
    def total_bits(self) -> int:
        """Fault sites consumed per read (the LUT's stored width)."""
        return self._total_bits

    def read_batch(
        self, addresses: np.ndarray, fault_bits: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError


class _IdentityBatchedLUT(BatchedLUT):
    """Uncoded string: the addressed stored bit, faults XOR straight in."""

    def read_batch(
        self, addresses: np.ndarray, fault_bits: np.ndarray
    ) -> np.ndarray:
        flip = fault_bits[_rows(addresses.shape[0]), addresses]
        return self._truth_out[addresses] ^ flip


class _RepetitionBatchedLUT(BatchedLUT):
    """N-copy majority of the addressed bit only.

    All copies store the same truth bit ``t``, and for odd ``N`` majority
    commutes with complement, so ``maj(t ^ f_c) = t ^ maj(f_c)``: the flip
    is the majority of the fault bits at the addressed copies.
    """

    def __init__(self, lut: CodedLUT, code: RepetitionCode) -> None:
        super().__init__(lut)
        self._copies = code.copies
        positions = np.empty((code.data_bits, code.copies), dtype=np.intp)
        for index in range(code.data_bits):
            for copy in range(code.copies):
                positions[index, copy] = code.position(copy, index)
        self._positions = positions

    def read_batch(
        self, addresses: np.ndarray, fault_bits: np.ndarray
    ) -> np.ndarray:
        rows = _rows(addresses.shape[0])
        copy_cols = self._positions[addresses]  # (n, copies)
        copy_faults = fault_bits[rows[:, None], copy_cols]
        ones = np.add.reduce(copy_faults.astype(np.int64), axis=1)
        flip = (ones > self._copies // 2).astype(np.uint8)
        return self._truth_out[addresses] ^ flip


class _SyndromeBatchedLUT(BatchedLUT):
    """Every syndrome decoder as one table-driven read.

    Per block, the syndrome is the XOR of the parity-check columns of the
    set fault bits.  The delivered bit takes the raw fault at the
    addressed data position and flips again when the syndrome equals
    that position's column (a correction) or is a false positive of the
    scheme.  Only the tables differ (see :func:`_syndrome_tables`).
    """

    def __init__(self, lut: CodedLUT, tables) -> None:
        super().__init__(lut)
        columns, data_positions, false_positive = tables
        self._block_size = lut.block_size
        self._code_bits = len(columns)
        self._stored_offsets = np.array(
            [offset for _, offset, _ in lut.blocks], dtype=np.intp
        )
        self._columns = np.array(columns, dtype=np.int64)
        self._data_positions = np.array(data_positions, dtype=np.intp)
        self._false_positive = np.array(false_positive, dtype=bool)

    def read_batch(
        self, addresses: np.ndarray, fault_bits: np.ndarray
    ) -> np.ndarray:
        rows = _rows(addresses.shape[0])
        block_index = addresses // self._block_size
        payload = addresses - block_index * self._block_size
        offsets = self._stored_offsets[block_index]
        cols = offsets[:, None] + np.arange(self._code_bits)[None, :]
        block_bits = fault_bits[rows[:, None], cols]  # (n, code bits)
        syndrome = np.bitwise_xor.reduce(
            block_bits.astype(np.int64) * self._columns[None, :], axis=1
        )
        data_cols = self._data_positions[payload]
        raw_flip = block_bits[rows, data_cols]
        corrector_flip = (syndrome == self._columns[data_cols]) | (
            self._false_positive[syndrome]
        )
        flip = raw_flip ^ corrector_flip.astype(np.uint8)
        return self._truth_out[addresses] ^ flip


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


def build_batched_lut(lut) -> Optional[BatchedLUT]:
    """Build the vectorized kernel for a LUT, or ``None`` if unsupported.

    Unsupported tables (gate-level decoders, generic block decoders) keep
    working through the scalar path; callers treat ``None`` as "fall back".
    """
    if not isinstance(lut, CodedLUT):
        return None
    blocks = lut.blocks
    first = blocks[0][0]
    if isinstance(first, IdentityCode):
        return _IdentityBatchedLUT(lut)
    if isinstance(first, RepetitionCode):
        return _RepetitionBatchedLUT(lut, first)
    # The gather geometry assumes every block shares one code shape
    # (always true when the table size is a block-size multiple).
    tables = {_syndrome_tables(lut.scheme, code) for code, _, _ in blocks}
    if len(tables) == 1 and None not in tables:
        return _SyndromeBatchedLUT(lut, tables.pop())
    return None
