"""Analysis bench: watchdog harvesting horizons.

Composes the per-computation models into the system-level question the
grid's heartbeat machinery creates: at a given fault rate, how many
instructions does a cell compute before the watchdog disables it, and
how much of a grid survives a 64-instruction job?
"""

from benchmarks.conftest import scaled
from repro.analysis.system import (
    disagreement_probability,
    expected_instructions_to_disable,
    expected_surviving_cells,
    grid_degradation_horizon,
)
from repro.experiments.report import format_table


RATES = scaled((0.005, 0.01, 0.03), (0.01, 0.03))


def run_analysis():
    rows = []
    for scheme in ("none", "tmr"):
        for p in RATES:
            d = disagreement_probability(scheme, p)
            rows.append(
                (
                    scheme,
                    p,
                    d,
                    expected_instructions_to_disable(8, d),
                    expected_surviving_cells(64, 64, 8, d),
                    grid_degradation_horizon(scheme, p),
                )
            )
    return rows


def test_bench_watchdog_horizons():
    rows = run_analysis()
    print()
    rendered = [
        (scheme, f"{p:g}", f"{d:.4f}", f"{mean:.0f}", f"{alive:.1f}/64",
         horizon)
        for scheme, p, d, mean, alive, horizon in rows
    ]
    print("Watchdog horizons (threshold 8, 64 instructions/cell)")
    print(format_table(
        ("scheme", "fault %/100", "P(detect)", "mean instr to disable",
         "cells alive after job", "90% survival horizon"),
        rendered,
    ))
    by = {(scheme, p): row for scheme, p, *row in
          [(r[0], r[1], r) for r in rows]}
    # TMR cells outlive uncoded cells at every rate.
    for p in RATES:
        none_row = next(r for r in rows if r[0] == "none" and r[1] == p)
        tmr_row = next(r for r in rows if r[0] == "tmr" and r[1] == p)
        assert tmr_row[3] > none_row[3]      # mean instructions to disable
        assert tmr_row[4] >= none_row[4]     # surviving cells
