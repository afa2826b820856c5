"""Extension (paper Section 7): fault injection on LUT-built control logic.

"Our foremost future work is to convert the entire processor cell,
including the router and alu-control modules, into lookup tables [to]
analyze the effect of high fault rates on control logic."  This benchmark
pushes fault masks through the LUT-implemented flag voters and measures
how often the control path misclassifies memory words, for uncoded versus
triplicated control tables.
"""

import numpy as np

from benchmarks.conftest import scaled
from repro.cell.lutctrl import LUTFieldVoter
from repro.cell.memword import MemoryWord
from repro.faults.mask import ExactFractionMask

_WORD = MemoryWord(
    instruction_id=42, opcode=0b111, operand1=10, operand2=20,
    data_valid=True, to_be_computed=True,
).pack()


TRIALS = scaled(4000, 800)


def misclassification_rate(scheme: str, fault_fraction: float,
                           trials: int = TRIALS) -> float:
    voter = LUTFieldVoter(scheme)
    policy = ExactFractionMask(fault_fraction)
    rng = np.random.default_rng(7)
    wrong = 0
    for _ in range(trials):
        mask = policy.generate(voter.site_count, rng)
        if voter.classify_word(_WORD, fault_mask=mask) != (True, True):
            wrong += 1
    return wrong / trials


def test_bench_lut_control_uncoded():
    rate = misclassification_rate("none", 0.05)
    print(f"\n  uncoded control-flag voter @5% faults: "
          f"{100 * rate:.1f}% words misclassified")
    assert rate > 0.0


def test_bench_lut_control_tmr():
    rate_tmr = misclassification_rate("tmr", 0.05)
    rate_none = misclassification_rate("none", 0.05)
    print(f"\n  TMR control-flag voter @5% faults: "
          f"{100 * rate_tmr:.2f}% vs uncoded {100 * rate_none:.2f}%")
    # Triplicated control tables must misclassify strictly less often.
    assert rate_tmr < rate_none
