"""Analysis bench: fault budgets and the area/accuracy trade-off.

Uses the closed-form models (cross-validated against the Monte Carlo
simulators by the property tests) to answer the adopter questions the
paper's evaluation implies: how much raw FIT each bit-level technique
tolerates at the 98 % target, and whether triplication is the sweet spot
of the replication family at the paper's operating knee.
"""

from benchmarks.conftest import SMOKE, scaled
from repro.analysis.design_space import fault_budget, fit_budget, tradeoff_table
from repro.experiments.report import format_table


SCHEMES = scaled(("none", "hamming", "tmr", "5mr", "7mr"),
                 ("none", "hamming", "tmr"))


def run_analysis():
    budgets = {
        scheme: (fault_budget(scheme, 98.0), fit_budget(scheme, 98.0))
        for scheme in SCHEMES
    }
    tradeoffs = tradeoff_table(0.025)
    return budgets, tradeoffs


def test_bench_design_space():
    budgets, tradeoffs = run_analysis()
    print()
    rows = [
        (scheme, f"{frac * 100:.3f}%", f"{fit:.2e}")
        for scheme, (frac, fit) in budgets.items()
    ]
    print("Fault budget at 98% correct (closed form)")
    print(format_table(("scheme", "max injected %", "max raw FIT"), rows))
    print()
    rows = [
        (scheme, f"{overhead:.2f}x", f"{acc:.1f}", f"{fom:.1f}")
        for scheme, overhead, acc, fom in tradeoffs
    ]
    print("Accuracy vs area at 2.5% injected faults")
    print(format_table(("scheme", "overhead", "accuracy", "acc/overhead"),
                       rows))

    # TMR's 98%-budget lands in the paper's headline FIT decade.
    assert 1e23 < budgets["tmr"][1] < 1e25
    # Replication budgets rise with order; information code trails all.
    if not SMOKE:  # higher replication orders dropped from the smoke sweep
        assert budgets["7mr"][0] > budgets["5mr"][0] > budgets["tmr"][0]
    assert budgets["hamming"][0] < budgets["none"][0]
