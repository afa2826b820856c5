"""Analysis bench: where the recursion leaks.

Instruments the paper's headline configuration (``aluss``) at its 3 %
operating knee with the error ledger and reports which segments' faults
show up disproportionately in the unmasked computations.  The expected
story: faults in any single ALU copy are voted away, so unmasked runs
are enriched in voter hits and multi-copy coincidences.
"""

from benchmarks.conftest import SMOKE, scaled
from repro.experiments.attribution import attribution_study, attribution_table_text


def run_study():
    return attribution_study(
        "aluss", fault_fraction=0.03, observations=scaled(800, 200), seed=2004
    )


def test_bench_fault_attribution():
    report = run_study()
    print()
    print(attribution_table_text(report))
    coverage = report.coverage_by_count
    low = min(coverage)
    high = max(coverage)
    print(f"  coverage at {low} faults/computation: "
          f"{100 * coverage[low]:.1f}%; at {high}: "
          f"{100 * coverage[high]:.1f}%")

    assert report.coverage >= 0.9
    shares = {name: (a, b) for name, a, b in report.segment_shares()}
    # The voter is the module level's single point of failure: its share
    # among unmasked runs should not be *under*-represented.
    share_all, share_bad = shares["voter"]
    if not SMOKE:  # segment shares need the full sample size
        assert share_bad >= share_all * 0.7
