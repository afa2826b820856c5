"""Section 4/5 FIT-rate translations and headline reliability claims.

Regenerates the percent -> FIT translation for ``aluss`` (the paper's
worked example: 1 % -> ~50 faults/cycle -> 3.6e23 FIT) and re-measures the
abstract's claims: 100 % correct computation at raw FIT rates up to ~1e23
and ~98 % at rates in excess of 1e24.
"""

import pytest

from benchmarks.conftest import scaled
from repro.experiments.fit_table import fit_rows, fit_table_text, headline_claims


def test_bench_fit_translation():
    rows = fit_rows("aluss")
    print()
    print(fit_table_text("aluss"))
    table = {pct: (faults, fit) for pct, faults, fit in rows}
    assert table[1][0] == pytest.approx(50.4)
    assert table[1][1] == pytest.approx(3.6e23, rel=0.01)
    assert table[3][1] > 1e24


def test_bench_headline_claims():
    claims = headline_claims(trials_per_workload=scaled(5, 2), seed=2004)
    print()
    for claim in claims:
        status = "OK" if claim.holds else "FAIL"
        print(f"  [{status}] {claim.claim}: paper={claim.paper_value} "
              f"measured={claim.measured_value}")
    assert all(c.holds for c in claims)
