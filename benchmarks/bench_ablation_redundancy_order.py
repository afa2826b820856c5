"""Ablation: bit-level replication order (1x / 3x / 5x / 7x strings).

The paper picks triplication; this sweep shows what higher-order
replication buys at the same fault fractions, against its linear area
cost (5x strings = 2560 sites, 7x = 3584, versus aluns' 1536).
"""

from benchmarks.conftest import SMOKE, print_series, scaled
from repro.experiments.ablations import ABLATION_PERCENTS, redundancy_order_ablation


def run_ablation():
    return redundancy_order_ablation(trials_per_workload=scaled(3, 1))


def test_bench_redundancy_order():
    series = run_ablation()
    print_series("Bit-level replication order", ABLATION_PERCENTS, series)
    if SMOKE:
        return
    mid = list(ABLATION_PERCENTS).index(5)
    assert series["3x"][mid] > series["1x"][mid]
    assert series["5x"][mid] >= series["3x"][mid]
    assert series["7x"][mid] >= series["5x"][mid]
    # Diminishing returns: the 3x->5x gain exceeds the 5x->7x gain at the
    # moderate-density knee (where TMR is already strong).
    knee = list(ABLATION_PERCENTS).index(2)
    gain_35 = series["5x"][knee] - series["3x"][knee]
    gain_57 = series["7x"][knee] - series["5x"][knee]
    assert gain_35 >= gain_57 - 2.0
