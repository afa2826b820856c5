"""Abstract / Section 5 claim: ~9x area overhead for the headline config.

"By triplicating at the bit-level and triplicating again at the
module-level, we incur area overhead on the order of 9x."
"""

import pytest

from repro.experiments.area import area_rows, area_table_text, headline_overhead


def test_bench_area_overhead():
    rows = area_rows()
    print()
    print(area_table_text())
    ratios = {name: ratio for name, _, ratio, _ in rows}
    assert ratios["alunn"] == 1.0
    assert 9.0 <= headline_overhead() < 10.0
    # Triplication levels multiply: bit-level TMR alone is 3x, adding
    # module-level space redundancy lands near 3 x 3 (plus the voter).
    assert ratios["aluns"] == pytest.approx(3.0)
    assert ratios["aluss"] == pytest.approx(ratios["aluns"] * 3, rel=0.1)
