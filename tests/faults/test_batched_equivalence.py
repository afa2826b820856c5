"""Scalar/batched equivalence: the batched tier's defining contract.

A suite on the ``batched`` tier -- the unit's plan on the NumPy executor
-- must return ``TrialResult``s equal field-for-field to the scalar
``run_workload`` for the same ``(seed, trial, workload)``
-- for every registered Table 2 ALU variant, both mask policies, and
fault fractions spanning none / sparse / heavy / saturated.  The mask
policies themselves must be *stream*-identical: ``generate_batch`` consumes
the RNG exactly as successive ``generate`` calls would.  The exact-fraction
cases run twice, through the C kernel's native mask draw and with no
provider at all, so both of ``generate_batch``'s paths meet the scalar
oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.alu.variants import build_alu, variant_names
from repro.experiments.figures import PAPER_FAULT_PERCENTAGES
from repro.faults import mask as mask_mod
from repro.faults.campaign import FaultCampaign
from repro.faults.mask import BernoulliMask, ExactFractionMask
from repro.faults.packing import unpack_flags, words_to_int
from repro.kernels.providers import get_provider
from repro.obs import Observer, observing
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads
from tests.conftest import requires_cc

FRACTIONS = (0.0, 0.005, 0.3, 1.0)


@pytest.fixture(scope="module")
def workloads():
    return paper_workloads(gradient(4, 4))


@pytest.mark.usefixtures("kernel_provider")
class TestCampaignEquivalence:
    """Satellite (c): TrialResult identity over the full variant grid."""

    @pytest.mark.parametrize("variant", variant_names())
    @pytest.mark.parametrize("policy_cls", [ExactFractionMask, BernoulliMask])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    def test_scalar_batched_identical(
        self, workloads, variant, policy_cls, fraction
    ):
        campaign = FaultCampaign(
            build_alu(variant), policy_cls(fraction), seed=2004
        )
        scalar = campaign.run_workload_suite(workloads, 1, backend="scalar")
        batched = campaign.run_workload_suite(workloads, 1, backend="batched")
        assert scalar.trials == batched.trials


class TestMaskStreamEquivalence:
    """generate_batch must consume the RNG exactly like generate."""

    @given(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        n_sites=st.integers(min_value=0, max_value=300),
        n_draws=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_exact_fraction(
        self, kernel_provider, fraction, n_sites, n_draws, seed
    ):
        self._check(ExactFractionMask(fraction), n_sites, n_draws, seed)

    @given(
        probability=st.floats(min_value=0.0, max_value=1.0),
        n_sites=st.integers(min_value=0, max_value=300),
        n_draws=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_bernoulli(self, probability, n_sites, n_draws, seed):
        self._check(BernoulliMask(probability), n_sites, n_draws, seed)

    @pytest.mark.parametrize("percent", PAPER_FAULT_PERCENTAGES)
    def test_exact_fraction_figure_scale(self, kernel_provider, percent):
        """Figure 8's largest unit (aluts, 5067 sites) at a 64-instruction
        trial, every paper percentage, drawn natively when live."""
        obs = Observer()
        with observing(obs):
            self._check(ExactFractionMask(percent / 100.0), 5067, 64, 2004)
        path = "numpy" if kernel_provider is None else "native"
        drawn = obs.metrics.counter(f"kernel.mask.{path}").value
        assert drawn == (64 if percent else 0)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_other_bit_generators_take_numpy_path(
        self, kernel_provider, bit_generator
    ):
        policy = ExactFractionMask(0.05)
        obs = Observer()
        with observing(obs):
            self._check(policy, 300, 8, 7, bit_generator)
        assert obs.metrics.counter("kernel.mask.native").value == 0
        assert obs.metrics.counter("kernel.mask.numpy").value == 8

    def test_band_miss_leaves_generator_untouched(
        self, kernel_provider, monkeypatch
    ):
        """With a zero-width band every boundary misses: the kernel must
        decline without advancing the stream, and the NumPy body redraws."""
        monkeypatch.setattr(mask_mod, "_BAND_SIGMAS", 0.0)
        policy = ExactFractionMask(0.05)
        if kernel_provider is not None:
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            assert policy.native_batch(kernel_provider.mask_fn, 300, 8, rng) is None
            assert rng.bit_generator.state == before
        obs = Observer()
        with observing(obs):
            self._check(policy, 300, 8, 5)
        declined = 0 if kernel_provider is None else 8
        assert obs.metrics.counter("kernel.mask.native").value == 0
        assert obs.metrics.counter("kernel.mask.declined").value == declined
        assert obs.metrics.counter("kernel.mask.numpy").value == 8

    @pytest.mark.parametrize(
        "fraction, n_sites, n_draws",
        [
            # Odd draw counts: the last row runs without a partner.
            (0.0517, 300, 1),
            (0.0517, 300, 3),
            (0.0517, 300, 63),
            # No rounding uniform: each row is exactly n_sites uniforms.
            (0.3, 5040, 8),
            (0.25, 64, 9),
            # Rows that fill their last word.
            (0.1, 128, 6),
            (0.0517, 640, 7),
            # Every site flips.
            (1.0, 100, 5),
        ],
    )
    def test_row_pairs(self, kernel_provider, fraction, n_sites, n_draws):
        """The two-row draw against the scalar draw, and the final state
        against an independent oracle: each row consumes ``cols``
        uniforms, so the stream must stand exactly ``n_draws * cols``
        steps past the seed."""
        policy = ExactFractionMask(fraction)
        base, remainder = policy._split_count(n_sites)
        cols = n_sites + (remainder > 0.0)
        obs = Observer()
        with observing(obs):
            self._check(policy, n_sites, n_draws, 2004)
            rng = np.random.default_rng(2004)
            policy.generate_batch(n_sites, n_draws, rng)
        oracle = np.random.PCG64(2004).advance(n_draws * cols)
        assert rng.bit_generator.state == oracle.state
        path = "numpy" if kernel_provider is None else "native"
        assert obs.metrics.counter(f"kernel.mask.{path}").value == 2 * n_draws
        assert obs.metrics.counter("kernel.mask.declined").value == 0

    @requires_cc
    @pytest.mark.parametrize("n_draws", [4, 5])
    def test_band_miss_in_last_rows_leaves_generator_untouched(self, n_draws):
        """A band that holds every row's boundary but the last one's: the
        kernel has drawn and packed the rows before it, yet must decline
        with the generator where it started.  With four rows the last
        one is the second of a pair; with five it runs alone."""
        draw = get_provider().mask_fn
        assert draw is not None
        policy = ExactFractionMask(0.0517)
        n_sites = 300
        base, remainder = policy._split_count(n_sites)
        assert remainder > 0.0  # each row ends with a rounding uniform
        for seed in range(100):
            block = np.random.default_rng(seed).random((n_draws, n_sites + 1))
            counts = base + (block[:, n_sites] < remainder)
            ordered = np.sort(block[:, :n_sites], axis=1)
            boundary = ordered[np.arange(n_draws), counts - 1]
            if boundary[-1] > boundary[:-1].max():
                break
        else:  # pragma: no cover - a seed is found within a few tries
            pytest.fail("no seed puts the last boundary above the others")
        # Each uniform is m * 2^-53 for an integer m, and the kernel cuts
        # its band at floor(t * 2^53): [tlo, thi) holds every earlier
        # boundary and stops one step short of the last.
        tlo = boundary[:-1].min()
        thi = boundary[-1]
        rng = np.random.default_rng(seed)
        before = rng.bit_generator.state
        got = draw(
            rng.bit_generator, n_sites, n_draws, base, remainder, tlo, thi
        )
        assert got is None
        assert rng.bit_generator.state == before
        # The same call with the band widened past the last boundary draws.
        words = draw(
            rng.bit_generator, n_sites, n_draws, base, remainder, tlo,
            thi + 2.0**-53,
        )
        want = policy.numpy_batch(
            n_sites, n_draws, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(words, want)

    @staticmethod
    def _check(policy, n_sites, n_draws, seed, bit_generator=np.random.PCG64):
        rng_scalar = np.random.Generator(bit_generator(seed))
        rng_batch = np.random.Generator(bit_generator(seed))
        scalar = [policy.generate(n_sites, rng_scalar) for _ in range(n_draws)]
        words = policy.generate_batch(n_sites, n_draws, rng_batch)
        batch = [words_to_int(words[d]) for d in range(n_draws)]
        assert scalar == batch
        # Both paths must leave the RNG in the same state, or trials after
        # the first would diverge.
        tail_a, tail_b = rng_scalar.random(4), rng_batch.random(4)
        np.testing.assert_array_equal(tail_a, tail_b)

    def test_exact_count_is_exact(self):
        """Every batched draw flips base or base+1 distinct sites."""
        policy = ExactFractionMask(0.03)
        words = policy.generate_batch(192, 500, np.random.default_rng(3))
        counts = unpack_flags(words, 192).sum(axis=1)
        base = int(0.03 * 192)
        assert set(np.unique(counts)) <= {base, base + 1}


class TestSuiteSeedNamespacing:
    """Satellite (f): trial streams keyed by workload name, not position."""

    def test_adding_a_workload_leaves_others_untouched(self, workloads):
        campaign = FaultCampaign(build_alu("alunn"), ExactFractionMask(0.1), seed=9)
        alone = campaign.run_workload_suite(
            {"hue_shift": workloads["hue_shift"]}, 3
        )
        extended = dict(workloads)
        together = campaign.run_workload_suite(extended, 3)
        # Suites iterate name-sorted; hue_shift precedes reverse_video.
        assert together.trials[:3] == alone.trials

    def test_workload_names_get_distinct_streams(self):
        campaign = FaultCampaign(build_alu("alunn"), ExactFractionMask(0.1), seed=9)
        draws = {
            name: campaign._rng_for_trial(0, name).random()
            for name in ("hue_shift", "reverse_video", None)
        }
        assert len(set(draws.values())) == 3
