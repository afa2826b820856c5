"""Ablation: what was the perfect-decoder idealisation worth?

Paper Section 4 injects faults only on lookup-table bit strings -- "we
do not model faults in the lookup table error detector or corrector".
This study builds the detector/corrector as a real gate netlist
(``hamming-gate`` scheme, ~doubling each LUT's fault surface) and holds
the *injected fraction* constant, so the decoder logic takes its
proportional share of the hits.
"""

from repro.alu.nanobox import NanoBoxALU
from repro.alu.redundancy import SimplexALU
from repro.experiments.ablations import sweep_unit
from benchmarks.conftest import SMOKE, print_series, scaled

PERCENTS = (0, 0.5, 1, 2, 3, 5)


def run_comparison():
    series = {}
    for scheme, label in (("hamming", "ideal decoder"),
                          ("hamming-gate", "fault-prone decoder")):
        alu = SimplexALU(NanoBoxALU(scheme=scheme), name=f"decoder[{label}]")
        series[label] = sweep_unit(alu, PERCENTS, trials_per_workload=scaled(4, 1),
                                   seed=23)
    return series


def test_bench_faulty_decoder():
    series = run_comparison()
    print_series("Hamming LUT: ideal vs fault-prone decoder logic",
                 PERCENTS, series)
    gate_alu = SimplexALU(NanoBoxALU(scheme="hamming-gate"))
    ideal_alu = SimplexALU(NanoBoxALU(scheme="hamming"))
    print(f"\n  fault surface: ideal {ideal_alu.site_count} sites, "
          f"gate-level {gate_alu.site_count} sites")

    # Fault-free both are perfect; under fire the fault-prone decoder
    # must do no better than the ideal one (same storage + extra targets,
    # though per-site exposure differs because the fraction is fixed).
    assert series["ideal decoder"][0] == 100.0
    assert series["fault-prone decoder"][0] == 100.0
    if not SMOKE:
        knee = PERCENTS.index(2)
        assert series["fault-prone decoder"][knee] <= \
            series["ideal decoder"][knee] + 10.0
