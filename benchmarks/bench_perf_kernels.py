"""Per-kernel tier checks for the compiled backend.

The compiled tier accelerates three hot kernels; on the variant that
stresses each, the scalar, batched and compiled tiers must give
field-identical trial streams:

* coded-LUT read + correct -- ``alunh`` (Hamming-coded LUT banks, the
  decode path dominates);
* gate-netlist evaluation -- ``aluncmos`` (CMOS majority netlists, the
  gate interpreter dominates);
* majority vote / ALU composition -- ``alusn`` (simplex-redundant
  composition, the vote/recombine path dominates).

At smoke size the gate-netlist check also holds the same-run floors of
``benchmarks.conftest.SPEEDUP_FLOORS`` (compiled 20x over scalar and 2x
over batched), timed warm and best-of-N in one process.

Set ``REPRO_BENCH_SMOKE=1`` to drop to one trial per workload.
"""

from benchmarks.conftest import (
    SMOKE,
    assert_speedup_floors,
    tier_results,
    tier_speedups,
    tier_summary,
)
from repro.alu.variants import build_alu
from repro.faults.campaign import FaultCampaign
from repro.faults.mask import BernoulliMask, ExactFractionMask

#: Paper methodology is five trials per workload; smoke keeps one.
TRIALS = 1 if SMOKE else 5


def _campaign(variant):
    return FaultCampaign(
        build_alu(variant), ExactFractionMask(0.03), seed=1
    )


def _netlist_campaign():
    """The gate-netlist check injects Bernoulli faults: the
    exact-fraction draw is an RNG-stream-identical cost every tier pays
    equally, which dilutes the netlist signal the floors gate."""
    return FaultCampaign(build_alu("aluncmos"), BernoulliMask(0.03), seed=1)


def _suite(bench_streams, campaign):
    """``run(backend)``: the campaign's suite on one tier."""
    return lambda backend: campaign.run_workload_suite(
        bench_streams, TRIALS, backend=backend
    )


def test_lut_tiers_agree(bench_streams):
    """Coded-LUT read/correct: Hamming-coded banks."""
    tier_results(_suite(bench_streams, _campaign("alunh")))


def test_vote_tiers_agree(bench_streams):
    """Majority vote / ALU composition: simplex redundancy."""
    tier_results(_suite(bench_streams, _campaign("alusn")))


def test_netlist_tier_speedup_floors(bench_streams):
    """Gate-netlist evaluation: CMOS majority gates.  The tiers agree at
    any size; the floors are held at smoke size only."""
    run = _suite(bench_streams, _netlist_campaign())
    if not SMOKE:
        tier_results(run)
        return
    seconds, speedups = tier_speedups(run)
    print(f"\naluncmos x{TRIALS} trials: {tier_summary(seconds, speedups)}")
    assert_speedup_floors(speedups, "aluncmos")
