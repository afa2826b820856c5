"""Plan lowering: which units compile, and what the flat form asserts.

A :class:`~repro.kernels.plan.KernelPlan` must exist for exactly the
units the batched tier vectorizes -- the compiled tier sits *below*
batched in the fallback chain, so its support set can never exceed it --
and the lowered arrays must describe the same site layout the scalar
unit exposes.
"""

import numpy as np
import pytest

from repro.alu.batched import build_batched_unit
from repro.alu.variants import build_alu, variant_names
from repro.faults.defects import DefectiveUnit, sample_defect_map
from repro.kernels.plan import HEADER_LEN, H_SITES, build_plan
from repro.perf.spec import ALUSpec


class TestLowering:
    @pytest.mark.parametrize("variant", variant_names())
    def test_every_table2_variant_lowers(self, variant):
        unit = build_alu(variant)
        plan = build_plan(unit)
        assert plan is not None
        assert plan.site_count == unit.site_count
        assert plan.header.shape == (HEADER_LEN,)
        assert plan.header[H_SITES] == unit.site_count

    @pytest.mark.parametrize("scheme", ["parity", "hamming-gate"])
    def test_unsupported_decoder_semantics_return_none(self, scheme):
        """Units the batched tier rejects lower to None, never raise."""
        unit = ALUSpec.simplex(scheme).build()
        assert build_batched_unit(unit) is None
        assert build_plan(unit) is None

    def test_support_set_matches_batched_tier(self):
        """compiled support is exactly batched support on the spec grid,
        for each design and for a defective part of it."""
        specs = [ALUSpec.variant(v) for v in variant_names()]
        specs += [
            ALUSpec.simplex(s)
            for s in ("none", "tmr", "5mr", "7mr", "hamming",
                      "hamming-sec", "hamming-fp", "hsiao",
                      "parity", "hamming-gate")
        ]
        specs += [
            ALUSpec.simplex(s, block_size=block)
            for s in ("hamming", "hamming-sec", "hamming-fp", "hsiao")
            for block in (4, 8)
        ]
        specs += [
            ALUSpec.space("tmr", voter)
            for voter in ("tmr", "none", "hamming", "cmos")
        ]
        for spec in specs:
            design = spec.build()
            rng = np.random.default_rng(design.site_count)
            part = DefectiveUnit(
                design, sample_defect_map(design.site_count, 0.05, rng)
            )
            # Every syndrome decoder lowers; only parity and the
            # gate-level decoder stay scalar.
            supported = spec.scheme not in ("parity", "hamming-gate")
            for unit in (design, part):
                batched = build_batched_unit(unit) is not None
                compiled = build_plan(unit) is not None
                assert compiled == batched == supported, (spec, unit)
            assert (build_plan(part) is None) == (build_plan(design) is None)

    def test_plan_arrays_are_flat_and_typed(self):
        plan = build_plan(build_alu("alunn"))
        assert plan.header.dtype == np.int64
        assert plan.ipool.dtype == np.int64
        assert plan.bpool.dtype == np.uint8
        assert plan.header.ndim == plan.ipool.ndim == plan.bpool.ndim == 1
        assert plan.scratch_size >= 64  # netlist input window

    def test_plan_is_deterministic(self):
        a = build_plan(build_alu("aluss"))
        b = build_plan(build_alu("aluss"))
        np.testing.assert_array_equal(a.header, b.header)
        np.testing.assert_array_equal(a.ipool, b.ipool)
        np.testing.assert_array_equal(a.bpool, b.bpool)
