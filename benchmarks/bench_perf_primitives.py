"""Performance baselines for the simulation primitives.

Not a paper experiment: these checks exercise the hot operations every
sweep is built from and pin each one's result.
"""

import numpy as np
import pytest

from repro.alu.cmos import CMOSALU
from repro.alu.nanobox import NanoBoxALU
from repro.alu.variants import build_alu
from repro.faults.mask import ExactFractionMask
from repro.lut.coded import CodedLUT
from repro.lut.table import TruthTable


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_bench_lut_read_tmr():
    lut = CodedLUT(TruthTable.from_function(5, lambda *b: sum(b) % 2), "tmr")
    result = lut.read(13, 1 << 45)
    assert result in (0, 1)


def test_bench_lut_read_hamming():
    lut = CodedLUT(
        TruthTable.from_function(5, lambda *b: sum(b) % 2), "hamming"
    )
    result = lut.read(13, 1 << 20)
    assert result in (0, 1)


def test_bench_mask_generation_aluss(rng):
    policy = ExactFractionMask(0.03)
    mask = policy.generate(5040, rng)
    assert mask >= 0


def test_bench_nanobox_compute():
    alu = NanoBoxALU(scheme="tmr")
    result = alu.compute(0b111, 0xC8, 0x64)
    assert result.value == (0xC8 + 0x64) & 0xFF


def test_bench_cmos_compute():
    alu = CMOSALU()
    result = alu.compute(0b111, 0xC8, 0x64)
    assert result.value == (0xC8 + 0x64) & 0xFF


def test_bench_aluss_full_computation(rng):
    """One instruction on the paper's headline config with a 3% mask --
    the inner loop of every Figure 9 data point."""
    alu = build_alu("aluss")
    policy = ExactFractionMask(0.03)

    def one_instruction():
        mask = policy.generate(alu.site_count, rng)
        return alu.compute(0b010, 0xAA, 0x55, fault_mask=mask)

    result = one_instruction()
    assert 0 <= result.value <= 255
