"""Scalar = batched = compiled: the compiled tier's defining contract.

Mirrors ``tests/faults/test_batched_equivalence.py`` (the PR 2 pattern)
one tier down: for every Table 2 variant -- including the faulty-voter
and faulty-decoder ablation units -- and every mask policy, the three
backends must produce field-identical ``TrialResult`` streams from the
same ``(seed, workload, trial)``.  A skipping fallback would make these
tests vacuous, so wherever a C compiler is on PATH the compiled runs
also assert that the C kernel is actually live.  With no compiler they
still pin scalar = batched, the tier ``compiled`` then degrades to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alu.variants import build_alu, variant_names
from repro.faults.campaign import FaultCampaign
from repro.faults.mask import (
    BernoulliMask,
    BurstMask,
    ExactFractionMask,
    FixedCountMask,
)
from repro.faults.packing import pack_flags
from repro.kernels import build_engine, get_provider
from repro.kernels.cbuild import find_compiler
from repro.perf.spec import ALUSpec
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads


@pytest.fixture(scope="module")
def workloads():
    return paper_workloads(gradient(4, 4))


@pytest.fixture(scope="module", autouse=True)
def require_provider():
    """These tests are meaningless if the compiled tier silently fell
    back while a C compiler is available."""
    if find_compiler() is not None:
        assert get_provider() is not None


def _assert_three_tier_identity(unit, policy, workloads, seed=2004):
    campaign = FaultCampaign(unit, policy, seed=seed)
    scalar = campaign.run_workload_suite(workloads, 1, backend="scalar")
    batched = campaign.run_workload_suite(workloads, 1, backend="batched")
    compiled = campaign.run_workload_suite(workloads, 1, backend="compiled")
    assert scalar.trials == batched.trials == compiled.trials


class TestTable2Variants:
    """All twelve plotted variants, every mask policy kind."""

    @pytest.mark.parametrize("variant", variant_names())
    @pytest.mark.parametrize(
        "policy",
        [
            ExactFractionMask(0.0),
            ExactFractionMask(0.03),
            ExactFractionMask(0.3),
            BernoulliMask(0.02),
            BurstMask(0.05, burst_length=3),
            FixedCountMask(5),
        ],
        ids=[
            "exact0", "exact3pct", "exact30pct", "bernoulli",
            "burst", "fixedcount",
        ],
    )
    def test_three_tier_identity(self, workloads, variant, policy):
        _assert_three_tier_identity(build_alu(variant), policy, workloads)


class TestAblationUnits:
    """The ablation grids ride the same seam; identity must hold there."""

    @pytest.mark.parametrize("voter", ["tmr", "none", "hamming", "cmos"])
    def test_faulty_voter_ablation(self, workloads, voter):
        unit = ALUSpec.space("tmr", voter).build()
        _assert_three_tier_identity(unit, ExactFractionMask(0.05), workloads)

    @pytest.mark.parametrize(
        "scheme", ["hamming", "hamming-fp", "hamming-sec", "hsiao"]
    )
    def test_faulty_decoder_ablation(self, workloads, scheme):
        """Decoder-semantics units: lowered where batched lowers,
        degraded (to identical results) where it does not."""
        unit = ALUSpec.simplex(scheme).build()
        _assert_three_tier_identity(unit, ExactFractionMask(0.05), workloads)

    @pytest.mark.parametrize("order", ["5mr", "7mr"])
    def test_redundancy_order_ablation(self, workloads, order):
        unit = ALUSpec.simplex(order).build()
        _assert_three_tier_identity(unit, ExactFractionMask(0.05), workloads)


class TestEngineProperties:
    """Hypothesis sweep at the engine layer: arbitrary batches and masks."""

    @given(
        variant=st.sampled_from(variant_names()),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_engine_matches_scalar_compute(self, variant, data, seed):
        unit = build_alu(variant)
        engine = build_engine(unit, "auto")
        assert engine is not None
        n = data.draw(st.integers(min_value=1, max_value=8))
        rng = np.random.default_rng(seed)
        ops = rng.choice([0b000, 0b001, 0b010, 0b111], size=n)
        a = rng.integers(0, 256, size=n)
        b = rng.integers(0, 256, size=n)
        flags = (rng.random((n, unit.site_count)) < 0.02).astype(np.uint8)
        words = pack_flags(flags)
        got = engine.bundles_words(ops, a, b, words)
        for row in range(n):
            mask = int(
                sum(
                    int(bit) << i
                    for i, bit in enumerate(flags[row])
                )
            )
            ref = unit.compute(
                int(ops[row]), int(a[row]), int(b[row]), fault_mask=mask
            )
            assert int(got[row]) == ref.bundle

    @pytest.mark.parametrize("tier", ["batched", "compiled"])
    def test_batch_validation_matches_batched_tier(self, tier):
        """Both executors reject the same malformed batches."""
        engine = build_engine(build_alu("alunn"), tier)
        if engine is None:
            pytest.skip("no C kernel")
        ok = np.zeros(2, dtype=np.int64)
        words = np.zeros((2, engine.n_words), dtype=np.uint64)
        with pytest.raises(ValueError, match="opcode out of 3-bit range"):
            engine.values_words(np.array([0, 8]), ok, ok, words)
        with pytest.raises(ValueError, match="invalid opcode"):
            engine.values_words(np.array([0, 0b011]), ok, ok, words)
        with pytest.raises(ValueError, match="operand a out of 8-bit"):
            engine.values_words(ok, np.array([0, 256]), ok, words)
        with pytest.raises(ValueError, match="operand b out of 8-bit"):
            engine.values_words(ok, ok, np.array([-1, 0]), words)
        with pytest.raises(ValueError, match="words shape"):
            engine.values_words(ok, ok, ok, words[:1])


class TestSuiteFusion:
    """The fused suite path must equal the scalar per-trial path exactly."""

    def test_fused_suite_equals_per_trial_runs(self, workloads):
        campaign = FaultCampaign(
            build_alu("aluncmos"), ExactFractionMask(0.04), seed=77
        )
        fused = campaign.run_workload_suite(workloads, 3, backend="compiled")
        reference = campaign.run_workload_suite(workloads, 3, backend="scalar")
        assert fused.trials == reference.trials
        batched = campaign.run_workload_suite(workloads, 3, backend="batched")
        assert batched.trials == reference.trials

    def test_fused_suite_is_rerun_stable(self, workloads):
        campaign = FaultCampaign(
            build_alu("alunn"), BernoulliMask(0.03), seed=5
        )
        first = campaign.run_workload_suite(workloads, 2, backend="compiled")
        second = campaign.run_workload_suite(workloads, 2, backend="compiled")
        assert first.trials == second.trials
