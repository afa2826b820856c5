"""Figure 8: percent correct vs injected fault rate, time redundancy.

Same sweep as Figure 7 but with module-level time redundancy (one ALU
computing each instruction three times into fault-prone holding
registers, then voting).  Section 5's finding: the curves look nearly
identical to Figure 7 per bit-level technique -- at these densities
module-level redundancy adds almost nothing on top of bit-level TMR.
"""

from benchmarks.conftest import BENCH_PERCENTS, BENCH_TRIALS, print_series
from repro.experiments.figures import figure7, figure8


def run_figure8():
    return figure8(fault_percents=BENCH_PERCENTS,
                   trials_per_workload=BENCH_TRIALS, seed=2004)


def test_bench_figure8():
    result = run_figure8()
    series = result.series()
    print_series(result.title, BENCH_PERCENTS, series)

    idx = {p: i for i, p in enumerate(BENCH_PERCENTS)}
    assert series["aluts"][idx[2]] >= 94.0
    # Strict alutn > aluth ordering where the curves are resolvable; at
    # the saturated tail (both ~0 %) sampling noise dominates.
    for p in BENCH_PERCENTS[1:]:
        if series["alutn"][idx[p]] >= 5.0:
            assert series["alutn"][idx[p]] > series["aluth"][idx[p]], p
    assert series["alutcmos"][idx[3]] < 20.0

    # Cross-figure similarity: time redundancy ~ no module redundancy for
    # the triplicated-string bit level at the knee.
    fig7 = figure7(fault_percents=(2, 3), trials_per_workload=BENCH_TRIALS,
                   seed=2004)
    for p in (2, 3):
        delta = abs(
            result.point("aluts", p).percent_correct
            - fig7.point("aluns", p).percent_correct
        )
        assert delta < 8.0, f"aluts vs aluns at {p}%: {delta}"
