"""Ablation: module-voter construction.

The paper votes through lookup tables coded like the ALU's own (and
injects faults on the voter's bit string, Section 4).  This sweep holds
the cores fixed (TMR-string NanoBox ALUs, space redundancy) and swaps the
voter: TMR-coded LUTs, uncoded LUTs, Hamming LUTs, and the CMOS gate
voter.
"""

from benchmarks.conftest import SMOKE, print_series, scaled
from repro.experiments.ablations import ABLATION_PERCENTS, voter_coding_ablation


def run_ablation():
    return voter_coding_ablation(trials_per_workload=scaled(3, 1))


def test_bench_voter_coding():
    series = run_ablation()
    print_series("Module-voter construction (TMR cores)", ABLATION_PERCENTS,
                 series)
    if not SMOKE:
        knee = list(ABLATION_PERCENTS).index(3)
        # A protected voter must not trail the unprotected one by much,
        # and at the knee the TMR voter should be at least competitive.
        assert series["voter:tmr"][knee] >= series["voter:none"][knee] - 4.0
        assert (series["voter:tmr"][knee]
                >= series["voter:hamming"][knee] - 4.0)
    # Sanity: every configuration is perfect at zero faults.
    for name, values in series.items():
        assert values[0] == 100.0, name
