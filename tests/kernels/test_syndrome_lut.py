"""The syndrome-table LUT kind, read by read, on every tier.

``hamming``, ``hamming-fp``, ``hamming-sec`` and ``hsiao`` share one
lowered LUT kind that differs only in its per-stored-bit column table and
its false-positive table.  For the two decoders that kind newly covers
(textbook SEC and Hsiao SEC-DED), at block sizes 4, 8 and 16, every
address is read under every single and every double stored-bit fault
four ways -- ``CodedLUT.read`` (the scalar oracle), the NumPy executor,
the row-at-a-time reference interpreter and the C kernel -- and all four
must deliver the same bit.
"""

import itertools

import numpy as np
import pytest

from repro.alu.batched import BatchedEngine
from repro.alu.nanobox import result_truth_table
from repro.faults.packing import pack_flags
from repro.kernels import CompiledEngine, get_provider, provider_failures
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
from repro.lut.coded import CodedLUT
from repro.lut.table import TruthTable
from tests.kernels.interp import eval_batch

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


def _probe_plan(lut):
    """A two-slice LUT core whose bundle bit 1 is one read of ``lut``.

    Slice 1 of a NanoBox core reads its result table at ``a1 | b1 << 1
    | carry << 2 | op << 3``.  Here the carry into slice 1 comes from an
    uncoded table returning ``a0`` and every opcode maps to itself, so
    ``(op, a, b)`` reach all 32 addresses.  Slice 1's table occupies
    sites ``0 .. total_bits - 1``; slice 0's copy and the carry table sit
    above them, fault-free.
    """
    b = _Builder()
    t = lut.total_bits
    result_desc = _lower_lut(b, lut)
    carry_desc = _lower_lut(b, CodedLUT(_CARRY_A0, "none"))
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


def _operands(addresses):
    """``(op, a, b)`` reaching each address of the probe plan's LUT."""
    ops = addresses >> 3
    a = ((addresses >> 2) & 1) | ((addresses & 1) << 1)
    b = addresses & 0b10
    return ops, a, b


def _interpreter_reads(plan, addresses, words):
    """Bit the probe plan's LUT delivers at each (address, mask row),
    read by the reference interpreter."""
    n = addresses.shape[0]
    out = np.empty(n, dtype=np.int64)
    eval_batch(
        plan.header, plan.ipool, plan.bpool, *_operands(addresses),
        words.reshape(-1), n, words.shape[1], out,
        np.zeros(plan.scratch_size, dtype=np.uint8),
    )
    return (out >> 1) & 1


def _engine_reads(engine, addresses, words):
    """The same reads through an executor's packed-word API."""
    return (engine.bundles_words(*_operands(addresses), words) >> 1) & 1


def _executors(plan):
    """The NumPy executor and, when live, the C kernel, on ``plan``."""
    engines = [BatchedEngine(plan)]
    provider = get_provider()
    if provider is not None:
        engines.append(CompiledEngine(plan, provider))
    return engines


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
    plan = _probe_plan(lut)
    flags = np.zeros((addresses.shape[0], plan.site_count), dtype=np.uint8)
    flags[:, : lut.total_bits] = faults
    return lut, addresses, faults, want, plan, pack_flags(flags)


class TestEveryTierAgrees:
    def test_lowers_as_one_syndrome_kind(self, case):
        *_, plan, _ = case
        result_desc = plan.ipool[plan.header[H_CORE] + 1]
        assert plan.ipool[result_desc] == LUT_SYNDROME

    def test_batched_matches_scalar(self, case):
        _, addresses, _, want, plan, words = case
        got = _engine_reads(BatchedEngine(plan), addresses, words)
        np.testing.assert_array_equal(got, want)

    def test_interpreter_matches_scalar(self, case):
        _, addresses, _, want, plan, words = case
        got = _interpreter_reads(plan, addresses, words)
        np.testing.assert_array_equal(got, want)

    def test_c_kernel_matches_scalar(self, case):
        _, addresses, _, want, plan, words = case
        provider = get_provider()
        if provider is None:
            pytest.skip(f"no kernel provider: {provider_failures()}")
        got = _engine_reads(CompiledEngine(plan, provider), addresses, words)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_hsiao_even_syndrome_never_corrects(block):
    """Two faults in one Hsiao word leave an even-weight syndrome, which
    matches no (odd-weight) column: the decoder never corrects, so every
    tier delivers the raw stored bit -- wrong exactly when one of the two
    faults hit the addressed bit."""
    lut = CodedLUT(result_truth_table(), "hsiao", block_size=block)
    plan = _probe_plan(lut)
    truth = lut.truth.outputs_array()
    for code, stored_offset, data_offset in lut.blocks:
        pairs = np.array(
            list(itertools.combinations(range(code.total_bits), 2))
        ) + stored_offset
        faults = np.zeros((len(pairs), plan.site_count), dtype=np.uint8)
        faults[np.arange(len(pairs))[:, None], pairs] = 1
        words = pack_flags(faults)
        for payload in range(code.data_bits):
            address = data_offset + payload
            raw = truth[address] ^ faults[:, stored_offset + payload]
            addresses = np.full(len(pairs), address)
            for engine in _executors(plan):
                np.testing.assert_array_equal(
                    _engine_reads(engine, addresses, words), raw
                )
            assert [
                lut.read(address, int(w)) for w in words[:, 0]
            ] == raw.tolist()
