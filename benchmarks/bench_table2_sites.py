"""Table 2: ALU naming conventions and potential fault-injection sites.

Builds each of the twelve variants and asserts that every
constructed site count equals the paper's published number exactly.
"""

import pytest

from repro.alu.variants import TABLE2_SITE_COUNTS, build_alu, variant_names
from repro.experiments.tables import table2_text


@pytest.mark.parametrize("name", variant_names())
def test_bench_variant_construction(name):
    """Build one Table 2 variant and check its site count."""
    alu = build_alu(name)
    assert alu.site_count == TABLE2_SITE_COUNTS[name]


def test_bench_table2_render():
    text = table2_text()
    print()
    print(text)
    assert "MISMATCH" not in text
