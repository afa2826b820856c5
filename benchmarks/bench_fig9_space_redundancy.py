"""Figure 9: percent correct vs injected fault rate, space redundancy.

Three concurrent ALU copies voted through a fault-prone LUT (or CMOS)
voter.  Section 5: ``aluss`` -- triplicated bit strings AND triplicated
modules -- is the paper's best configuration, reaching 98 % correct at
3 % injected faults (raw FIT ~ 1e24) for a ~9x area cost.
"""

from benchmarks.conftest import BENCH_PERCENTS, BENCH_TRIALS, print_series
from repro.experiments.figures import figure7, figure9


def run_figure9():
    return figure9(fault_percents=BENCH_PERCENTS,
                   trials_per_workload=BENCH_TRIALS, seed=2004)


def test_bench_figure9():
    result = run_figure9()
    series = result.series()
    print_series(result.title, BENCH_PERCENTS, series)

    idx = {p: i for i, p in enumerate(BENCH_PERCENTS)}
    # The paper's headline: ~98% at 3% injected on aluss.
    assert series["aluss"][idx[3]] >= 94.0
    assert series["aluss"][idx[1]] >= 99.0
    for p in BENCH_PERCENTS[1:]:
        if series["alusn"][idx[p]] >= 5.0:
            assert series["alusn"][idx[p]] > series["alush"][idx[p]], p
    assert series["aluscmos"][idx[3]] < 25.0

    # aluss ~ aluns: eliminating module-level FT loses almost nothing.
    fig7 = figure7(fault_percents=(3,), trials_per_workload=BENCH_TRIALS,
                   seed=2004)
    delta = abs(
        result.point("aluss", 3).percent_correct
        - fig7.point("aluns", 3).percent_correct
    )
    assert delta < 8.0
