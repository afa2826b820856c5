"""The syndrome-table LUT kind, read by read, on every tier.

``hamming``, ``hamming-fp``, ``hamming-sec`` and ``hsiao`` share one
lowered LUT kind that differs only in its per-stored-bit column table and
its false-positive table.  For the two decoders that kind newly covers
(textbook SEC and Hsiao SEC-DED), at block sizes 4, 8 and 16, every
address is read under every single and every double stored-bit fault
four ways -- ``CodedLUT.read`` (the scalar oracle),
``BatchedLUT.read_batch``, the reference interpreter and the C kernel --
and all four must deliver the same bit.
"""

import itertools

import numpy as np
import pytest

from repro.alu.nanobox import result_truth_table
from repro.faults.packing import pack_flags
from repro.kernels import get_provider, provider_failures
from repro.kernels.interp import eval_batch_python
from repro.kernels.plan import (
    COMP_SIMPLEX,
    H_BASE0,
    H_COMP,
    H_CORE,
    H_IMAP,
    H_SCRATCH,
    H_SITES,
    H_VOTER,
    HEADER_LEN,
    INPUT_SCRATCH,
    LUT_SYNDROME,
    NODE_LUT,
    KernelPlan,
    _Builder,
    _lower_lut,
)
from repro.lut.batched import _SyndromeBatchedLUT, build_batched_lut
from repro.lut.coded import CodedLUT
from repro.lut.table import TruthTable

SCHEMES = ("hamming-sec", "hsiao")
BLOCK_SIZES = (4, 8, 16)

#: A 5-input table delivering address bit 0: the probe core's carry.
_CARRY_A0 = TruthTable(5, sum(1 << addr for addr in range(1, 32, 2)))


def _fault_rows(total_bits):
    """Every single and every double stored-bit fault, as 0/1 rows."""
    sites = [(k,) for k in range(total_bits)]
    sites += list(itertools.combinations(range(total_bits), 2))
    rows = np.zeros((len(sites), total_bits), dtype=np.uint8)
    for row, hit in enumerate(sites):
        rows[row, list(hit)] = 1
    return rows


def _probe_plan(kernel):
    """A two-slice LUT core whose bundle bit 1 is one read of ``kernel``.

    Slice 1 of a NanoBox core reads its result table at ``a1 | b1 << 1
    | carry << 2 | op << 3``.  Here the carry into slice 1 comes from an
    uncoded table returning ``a0`` and every opcode maps to itself, so
    ``(op, a, b)`` reach all 32 addresses.  Slice 1's table occupies
    sites ``0 .. total_bits - 1``; slice 0's copy and the carry table sit
    above them, fault-free.
    """
    b = _Builder()
    t = kernel.total_bits
    result_desc = _lower_lut(b, kernel)
    carry_desc = _lower_lut(b, build_batched_lut(CodedLUT(_CARRY_A0, "none")))
    r_off = b.iadd([t, 0])
    c_off = b.iadd([2 * t, 2 * t])
    header = np.zeros(HEADER_LEN, dtype=np.int64)
    header[H_COMP] = COMP_SIMPLEX
    header[H_CORE] = b.iadd(
        [NODE_LUT, result_desc, carry_desc, r_off, c_off, 2]
    )
    header[H_VOTER] = -1
    header[H_BASE0] = 0
    header[H_SITES] = 2 * t + _CARRY_A0.size
    header[H_IMAP] = b.iadd(range(8))
    header[H_SCRATCH] = INPUT_SCRATCH
    return KernelPlan(
        header=header,
        ipool=np.array(b.ipool, dtype=np.int64),
        bpool=np.array(b.bpool, dtype=np.uint8),
        site_count=int(header[H_SITES]),
        scratch_size=INPUT_SCRATCH,
    )


def _plan_reads(eval_fn, plan, addresses, words):
    """Bit the probe plan's LUT delivers at each (address, mask row)."""
    n = addresses.shape[0]
    ops = addresses >> 3
    a = ((addresses >> 2) & 1) | ((addresses & 1) << 1)
    b = addresses & 0b10
    out = np.empty(n, dtype=np.int64)
    eval_fn(
        plan.header, plan.ipool, plan.bpool, ops, a, b, words.reshape(-1),
        n, words.shape[1], out, np.zeros(plan.scratch_size, dtype=np.uint8),
    )
    return (out >> 1) & 1


@pytest.fixture(scope="module", params=[
    (scheme, block) for scheme in SCHEMES for block in BLOCK_SIZES
], ids=lambda p: f"{p[0]}-block{p[1]}")
def case(request):
    """One coded table, every (address, single or double fault) pair of
    it, and the scalar oracle's reads."""
    scheme, block = request.param
    lut = CodedLUT(result_truth_table(), scheme, block_size=block)
    rows = _fault_rows(lut.total_bits)
    row_words = [int(w) for w in pack_flags(rows)[:, 0]]
    assert lut.total_bits <= 64  # one mask word per row
    addresses = np.repeat(np.arange(lut.truth.size), rows.shape[0])
    faults = np.tile(rows, (lut.truth.size, 1))
    want = np.array(
        [lut.read(a, w) for a in range(lut.truth.size) for w in row_words],
        dtype=np.int64,
    )
    plan = _probe_plan(build_batched_lut(lut))
    flags = np.zeros((addresses.shape[0], plan.site_count), dtype=np.uint8)
    flags[:, : lut.total_bits] = faults
    return lut, addresses, faults, want, plan, pack_flags(flags)


class TestEveryTierAgrees:
    def test_lowers_as_one_syndrome_kind(self, case):
        lut, *_, plan, _ = case
        assert isinstance(build_batched_lut(lut), _SyndromeBatchedLUT)
        result_desc = plan.ipool[plan.header[H_CORE] + 1]
        assert plan.ipool[result_desc] == LUT_SYNDROME

    def test_batched_matches_scalar(self, case):
        lut, addresses, faults, want, _, _ = case
        got = build_batched_lut(lut).read_batch(addresses, faults)
        np.testing.assert_array_equal(got, want)

    def test_interpreter_matches_scalar(self, case):
        _, addresses, _, want, plan, words = case
        got = _plan_reads(eval_batch_python, plan, addresses, words)
        np.testing.assert_array_equal(got, want)

    def test_c_kernel_matches_scalar(self, case):
        _, addresses, _, want, plan, words = case
        provider = get_provider()
        if provider is None:
            pytest.skip(f"no kernel provider: {provider_failures()}")
        got = _plan_reads(provider.eval_fn, plan, addresses, words)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_hsiao_even_syndrome_never_corrects(block):
    """Two faults in one Hsiao word leave an even-weight syndrome, which
    matches no (odd-weight) column: the decoder never corrects, so every
    tier delivers the raw stored bit -- wrong exactly when one of the two
    faults hit the addressed bit."""
    lut = CodedLUT(result_truth_table(), "hsiao", block_size=block)
    kernel = build_batched_lut(lut)
    truth = lut.truth.outputs_array()
    for code, stored_offset, data_offset in lut.blocks:
        pairs = np.array(
            list(itertools.combinations(range(code.total_bits), 2))
        ) + stored_offset
        faults = np.zeros((len(pairs), lut.total_bits), dtype=np.uint8)
        faults[np.arange(len(pairs))[:, None], pairs] = 1
        for payload in range(code.data_bits):
            address = data_offset + payload
            raw = truth[address] ^ faults[:, stored_offset + payload]
            addresses = np.full(len(pairs), address)
            np.testing.assert_array_equal(
                kernel.read_batch(addresses, faults), raw
            )
            assert [
                lut.read(address, int(w)) for w in pack_flags(faults)[:, 0]
            ] == raw.tolist()
