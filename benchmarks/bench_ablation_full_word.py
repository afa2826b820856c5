"""Ablation: triplicate everything vs the paper's critical-fields-only.

The paper protects only the data-valid / to-be-computed flags and the
result copies; the soak experiment showed accumulated upsets leak through
the unprotected operand and ID fields.  This study subjects both memory
word layouts to equal per-bit upset probabilities and compares the
field-corruption rate against the 2.08x storage cost of protecting
everything.
"""

import numpy as np

from benchmarks.conftest import SMOKE, scaled

from repro.cell.memword import MEMORY_WORD_BITS, MemoryWord
from repro.cell.memword_full import (
    FULL_WORD_BITS,
    FullyTriplicatedWord,
    storage_overhead,
)

UPSET_PROBS = (0.002, 0.01, 0.03)
TRIALS = scaled(1200, 150)


def _noise(rng, width, p):
    mask = 0
    hits = np.nonzero(rng.random(width) < p)[0]
    for i in hits:
        mask |= 1 << int(i)
    return mask


def corruption_rates():
    word = FullyTriplicatedWord(
        instruction_id=0x2BAD, opcode=0b010, operand1=0x5A,
        operand2=0xFF, result=0xA5, data_valid=True, to_be_computed=False,
    )
    paper_raw = word.to_paper_word().pack()
    full_raw = word.pack()
    reference = word.to_paper_word()

    rng = np.random.default_rng(2004)
    rows = []
    for p in UPSET_PROBS:
        paper_bad = full_bad = 0
        for _ in range(TRIALS):
            decoded_paper = MemoryWord.unpack(
                paper_raw ^ _noise(rng, MEMORY_WORD_BITS, p)
            )
            decoded_full = FullyTriplicatedWord.unpack(
                full_raw ^ _noise(rng, FULL_WORD_BITS, p)
            ).to_paper_word()
            if decoded_paper != reference:
                paper_bad += 1
            if decoded_full != reference:
                full_bad += 1
        rows.append((p, paper_bad / TRIALS, full_bad / TRIALS))
    return rows


def test_bench_full_word_tmr():
    rows = corruption_rates()
    print()
    print(f"  {'upset p':>8}  {'paper layout':>12}  {'full TMR':>9}")
    for p, paper, full in rows:
        print(f"  {p:>8g}  {100 * paper:>11.1f}%  {100 * full:>8.1f}%")
    print(f"  storage: {MEMORY_WORD_BITS} vs {FULL_WORD_BITS} bits "
          f"({storage_overhead():.2f}x)")

    if SMOKE:
        return
    # Full TMR must dominate at every swept probability.
    for p, paper, full in rows:
        assert full < paper, p
    # And decisively so at the low-probability end (single upsets are
    # exactly what the full layout eliminates).
    assert rows[0][2] < rows[0][1] / 4
