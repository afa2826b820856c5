"""Extension (abstract / §1): manufacturing defects, not just transients.

The paper's motivation explicitly pairs "substantial numbers of
manufacturing defects" with "high transient error rates" but only
evaluates the transients.  This bench manufactures parts with random
stuck-at cells and measures perfect yield and graceful degradation per
bit-level technique -- the defect half of the NanoBox story.
"""

from benchmarks.conftest import scaled
from repro.experiments.defect_yield import yield_sweep, yield_table_text

DENSITIES = (5e-4, 2e-3, 5e-3)
VARIANTS = ("aluncmos", "alunn", "aluns")
PARTS = scaled(12, 4)


def run_sweep():
    return yield_sweep(
        variants=VARIANTS, densities=DENSITIES, n_parts=PARTS, seed=2004
    )


def test_bench_defect_yield():
    points = run_sweep()
    print()
    print(yield_table_text(points))

    by = {
        (p.variant, p.density): p
        for series in points.values()
        for p in series
    }
    # The recursive hierarchy converts defect density into yield: at
    # every density the triplicated-string parts yield at least as well
    # as uncoded parts, and degrade more gracefully.
    for d in DENSITIES:
        assert by[("aluns", d)].perfect_yield >= by[("alunn", d)].perfect_yield
        assert (
            by[("aluns", d)].mean_accuracy_transient
            >= by[("alunn", d)].mean_accuracy_transient
        )
    # TMR parts stay near-perfect even at the highest density swept.
    assert by[("aluns", DENSITIES[-1])].mean_accuracy >= 98.0
