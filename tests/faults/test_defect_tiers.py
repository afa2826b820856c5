"""Scalar = batched = compiled for manufactured (defective) parts.

A :class:`~repro.faults.defects.DefectiveUnit` runs on the batched and
compiled tiers as a :class:`~repro.faults.defects.DefectOverlay` over its
pristine design's engine.  ``DefectiveUnit.compute`` stays the scalar
oracle: for every Table 2 variant, defect density and mask policy the
three tiers must give field-identical ``TrialResult``s, with the C
kernel live and with no provider at all.  The grid includes parts whose
defects fall on dynamic sites (CMOS gate nodes, time-redundancy holding
registers), which the model treats as persistent inversions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alu.base import Opcode
from repro.alu.reference import reference_compute
from repro.alu.variants import build_alu, variant_names
from repro.experiments.defect_yield import TEST_OPERANDS, functional_test
from repro.faults.campaign import FaultCampaign
from repro.faults.defects import DefectiveUnit, DefectOverlay, sample_defect_map
from repro.faults.mask import BernoulliMask, ExactFractionMask
from repro.faults.packing import pack_flags
from repro.kernels import accelerate_unit, build_engine
from repro.kernels.plan import build_plan
from repro.perf.spec import ALUSpec
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads

DENSITIES = (0.0, 5e-3, 5e-2)

POLICIES = [
    ExactFractionMask(0.0),
    ExactFractionMask(0.01),
    ExactFractionMask(0.1),
    BernoulliMask(0.01),
]
POLICY_IDS = ["exact0", "exact1pct", "exact10pct", "bernoulli1pct"]


@pytest.fixture(scope="module")
def workloads():
    return paper_workloads(gradient(4, 4))


def _part(design, density, seed=2004):
    rng = np.random.default_rng([seed, design.site_count])
    return DefectiveUnit(
        design, sample_defect_map(design.site_count, density, rng)
    )


def _assert_three_tier_identity(part, policy, workloads):
    campaign = FaultCampaign(part, policy, seed=2004)
    scalar = campaign.run_workload_suite(workloads, 1, backend="scalar")
    batched = campaign.run_workload_suite(workloads, 1, backend="batched")
    compiled = campaign.run_workload_suite(workloads, 1, backend="compiled")
    assert scalar.trials == batched.trials == compiled.trials


def _scalar_functional_test(unit):
    """The per-vector loop ``functional_test`` batches."""
    for op in Opcode:
        for a, b in TEST_OPERANDS:
            got = unit.compute(int(op), a, b)
            want = reference_compute(int(op), a, b)
            if (got.value, got.carry) != (want.value, want.carry):
                return False
    return True


class TestTable2Parts:
    @pytest.mark.parametrize("variant", variant_names())
    @pytest.mark.parametrize("density", DENSITIES)
    @pytest.mark.parametrize("policy", POLICIES, ids=POLICY_IDS)
    def test_three_tier_identity(
        self, kernel_provider, workloads, variant, density, policy
    ):
        part = _part(build_alu(variant), density)
        assert isinstance(build_engine(part, "batched"), DefectOverlay)
        if kernel_provider is not None:
            assert isinstance(build_engine(part, "compiled"), DefectOverlay)
        _assert_three_tier_identity(part, policy, workloads)

    @pytest.mark.parametrize("variant", ["aluncmos", "aluscmos", "alutcmos",
                                         "alutn", "aluts"])
    def test_dynamic_site_defects(self, kernel_provider, workloads, variant):
        """Defects on gate nodes and holding registers: inexact parts."""
        design = build_alu(variant)
        part = _part(design, 5e-2)
        assert part.exact is False
        _assert_three_tier_identity(part, ExactFractionMask(0.01), workloads)


class TestUnvectorisableDesign:
    @pytest.mark.parametrize("scheme", ["parity", "hamming-gate"])
    def test_both_builders_decline_and_results_match(
        self, kernel_provider, workloads, scheme
    ):
        part = _part(ALUSpec.simplex(scheme).build(), 5e-2)
        assert build_plan(part) is None
        for backend in ("batched", "compiled", "auto"):
            assert build_engine(part, backend) is None
        _assert_three_tier_identity(part, ExactFractionMask(0.01), workloads)
        assert functional_test(part) == _scalar_functional_test(part)


class TestOverlay:
    def test_plan_is_the_pristine_plan(self):
        design = build_alu("alusn")
        pristine, defective = build_plan(design), build_plan(_part(design, 5e-2))
        np.testing.assert_array_equal(pristine.header, defective.header)
        np.testing.assert_array_equal(pristine.ipool, defective.ipool)
        np.testing.assert_array_equal(pristine.bpool, defective.bpool)

    def test_engine_bundles_match_scalar_compute(self, kernel_provider, rng):
        part = _part(build_alu("aluth"), 5e-2)
        n = 12
        ops = rng.choice([0b000, 0b001, 0b010, 0b111], size=n)
        a = rng.integers(0, 256, size=n)
        b = rng.integers(0, 256, size=n)
        flags = (rng.random((n, part.site_count)) < 0.02).astype(np.uint8)
        want = [
            part.compute(
                int(ops[r]), int(a[r]), int(b[r]),
                fault_mask=sum(int(bit) << i for i, bit in enumerate(flags[r])),
            ).bundle
            for r in range(n)
        ]
        words = pack_flags(flags)
        for backend in ("batched", "compiled"):
            engine = build_engine(part, backend)
            if engine is None:
                continue
            assert engine.bundles_words(ops, a, b, words).tolist() == want
            assert engine.values_words(ops, a, b, words).tolist() == [
                w & 0xFF for w in want
            ]

    def test_accelerated_part_matches_scalar(self, kernel_provider):
        part = _part(build_alu("alush"), 5e-2)
        fast = accelerate_unit(part, backend="auto")
        for op, (a, b) in zip((0, 1, 2, 7), TEST_OPERANDS):
            for mask in (0, (1 << part.site_count) - 1, 0b1011 << 40):
                assert fast.compute(op, a, b, mask) == part.compute(
                    op, a, b, mask
                )

    @pytest.mark.parametrize("backend", ["batched", "compiled"])
    def test_malformed_rows_get_the_engine_error(self, backend):
        part = _part(build_alu("alunn"), 5e-2)
        engine = build_engine(part, backend)
        if engine is None:
            pytest.skip("no C kernel")
        ok = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError, match="words shape"):
            engine.values_words(ok, ok, ok, np.zeros((2, 3), dtype=np.uint64))
        with pytest.raises(ValueError, match="words shape"):
            engine.values_words(
                ok, ok, ok, np.zeros((3, engine.n_words), dtype=np.uint64)
            )

    def test_stacked_parts_compose(self, workloads):
        """A part of a part applies both defect maps, on every tier."""
        outer = _part(_part(build_alu("alunh"), 5e-2), 5e-2, seed=7)
        assert isinstance(build_engine(outer, "batched"), DefectOverlay)
        _assert_three_tier_identity(outer, ExactFractionMask(0.01), workloads)


class TestFunctionalTest:
    @given(
        variant=st.sampled_from(variant_names()),
        density=st.sampled_from([0.0, 1e-3, 5e-3, 2e-2]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_per_vector_loop(self, variant, density, seed):
        design = build_alu(variant)
        defects = sample_defect_map(
            design.site_count, density, np.random.default_rng(seed)
        )
        part = DefectiveUnit(design, defects)
        assert functional_test(part) == _scalar_functional_test(part)

    def test_pristine_design_without_wrapper(self):
        assert functional_test(build_alu("aluts"))
