"""Ablation: the information code done right -- Hsiao SEC-DED LUTs.

The paper shortlists Hamming, Hsiao, and Reed-Solomon as candidate
lookup-table codes but only evaluates Hamming, whose decoder fired false
positives on non-addressed-bit errors.  A Hsiao SEC-DED decoder never
corrects on an even syndrome, so double errors are passed through rather
than "fixed" into the output.  This bench quantifies what the paper's
information-code row would have looked like with that decoder, against
the uncoded and triplicated tables at matched fault fractions.
"""

from repro.alu.nanobox import NanoBoxALU
from repro.alu.redundancy import SimplexALU
from repro.experiments.ablations import sweep_unit
from benchmarks.conftest import SMOKE, print_series, scaled

PERCENTS = (0, 0.5, 1, 2, 3, 5, 9)


def run_comparison():
    series = {}
    for scheme in ("none", "hamming", "hsiao", "tmr"):
        alu = SimplexALU(NanoBoxALU(scheme=scheme), name=f"hsiao-ablate[{scheme}]")
        series[scheme] = sweep_unit(alu, PERCENTS,
                                    trials_per_workload=scaled(4, 1), seed=21)
    return series


def test_bench_hsiao_information_code():
    series = run_comparison()
    print_series("Information codes: Hsiao SEC-DED vs paper Hamming",
                 PERCENTS, series)
    if not SMOKE:
        knee = PERCENTS.index(2)
        # Hsiao must beat both the paper's Hamming decoder and no code...
        assert series["hsiao"][knee] > series["hamming"][knee]
        assert series["hsiao"][knee] >= series["none"][knee]
        # ...while triplicated strings stay the overall winner.
        assert series["tmr"][knee] >= series["hsiao"][knee]
    # Site cost context: hsiao = 16 x 44 = 704 sites, between alunh's
    # 672 and aluns' 1536.
    assert SimplexALU(NanoBoxALU(scheme="hsiao")).site_count == 704
