"""Unit tests for the Table 2 variant registry -- the calibration anchor."""

import pytest

from repro.alu.base import Opcode
from repro.alu.redundancy import SimplexALU, SpaceRedundantALU, TimeRedundantALU
from repro.alu.reference import reference_compute
from repro.alu.variants import (
    ALUSpec,
    TABLE2_SITE_COUNTS,
    build_alu,
    build_all,
    variant_names,
    variant_spec,
)
from tests.conftest import OPERAND_CASES


class TestTable2SiteCounts:
    """Every constructed variant must hit the paper's count exactly."""

    @pytest.mark.parametrize("name,expected", sorted(TABLE2_SITE_COUNTS.items()))
    def test_exact_site_count(self, name, expected):
        assert build_alu(name).site_count == expected

    def test_twelve_variants(self):
        assert len(variant_names()) == 12

    def test_decompositions(self):
        # The cross-variant arithmetic the paper's table implies.
        t = TABLE2_SITE_COUNTS
        assert t["aluns"] == 3 * t["alunn"]
        assert t["aluss"] - 3 * t["aluns"] == 432          # TMR voter
        assert t["alusn"] - 3 * t["alunn"] == 144          # uncoded voter
        assert t["alush"] - 3 * t["alunh"] == 189          # Hamming voter
        assert t["aluscmos"] - 3 * t["aluncmos"] == 81     # CMOS voter
        for bit in ("cmos", "h", "n", "s"):
            assert t[f"alut{bit}"] - t[f"alus{bit}"] == 27  # stored results


class TestVariantRecipe:
    def test_spec_fields(self):
        spec = variant_spec("aluss")
        assert spec.scheme == "tmr"
        assert spec.module == "space"
        assert spec.voter == "tmr"
        assert spec.name == "aluss"
        assert TABLE2_SITE_COUNTS[spec.name] == 5040
        assert spec.build().site_count == 5040
        assert spec.scheme != "cmos"          # a lookup-table variant
        assert spec.module != "none"          # module-level redundancy

    def test_cmos_spec(self):
        spec = variant_spec("aluncmos")
        assert spec.scheme == "cmos"
        assert spec.module == "none"
        assert spec.voter == ""

    def test_time_spec(self):
        spec = variant_spec("aluth")
        assert (spec.module, spec.scheme, spec.voter) == (
            "time", "hamming", "hamming"
        )

    def test_build_alu_builds_the_spec(self):
        for name in variant_names():
            assert ALUSpec.variant(name) == variant_spec(name)
            assert build_alu(name).site_space.name == name

    @pytest.mark.parametrize("bad", ["alu", "aluxy", "aluzz", "nanobox", ""])
    def test_unknown_names(self, bad):
        with pytest.raises(KeyError):
            variant_spec(bad)
        with pytest.raises(KeyError):
            build_alu(bad)


class TestVariantStructure:
    def test_module_wrapper_types(self):
        assert isinstance(build_alu("alunn"), SimplexALU)
        assert isinstance(build_alu("alusn"), SpaceRedundantALU)
        assert isinstance(build_alu("alutn"), TimeRedundantALU)

    def test_build_all(self):
        alus = build_all()
        assert set(alus) == set(variant_names())


class TestVariantCorrectness:
    @pytest.mark.parametrize("name", sorted(TABLE2_SITE_COUNTS))
    def test_fault_free_matches_reference(self, name):
        alu = build_alu(name)
        for op in Opcode:
            for a, b in OPERAND_CASES:
                got = alu.compute(int(op), a, b)
                want = reference_compute(int(op), a, b)
                assert (got.value, got.carry) == (want.value, want.carry), (
                    f"{name} {op.name}({a:#x},{b:#x})"
                )
