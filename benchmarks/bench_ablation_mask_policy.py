"""Ablation: exact-fraction versus Bernoulli fault injection.

The paper forces an exact fraction of sites to flip per computation; the
closed-form models assume independent per-site flips.  The two must agree
closely, confirming the injection semantics carries no hidden effect --
and licensing the analytical cross-checks in ``repro.analysis``.
"""

from benchmarks.conftest import SMOKE, print_series, scaled
from repro.experiments.ablations import ABLATION_PERCENTS, mask_policy_ablation


def run_ablation():
    return mask_policy_ablation(trials_per_workload=scaled(4, 1))


def test_bench_mask_policy():
    series = run_ablation()
    print_series("Mask policy (TMR ALU)", ABLATION_PERCENTS, series)
    tolerance = 25.0 if SMOKE else 10.0
    for i, pct in enumerate(ABLATION_PERCENTS):
        delta = abs(series["exact"][i] - series["bernoulli"][i])
        assert delta < tolerance, f"policies diverge at {pct}%: {delta}"
