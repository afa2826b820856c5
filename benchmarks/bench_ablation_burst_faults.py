"""Ablation: spatially-correlated faults and TMR string layout.

The paper injects *uniformly distributed* random transients.  Physical
upsets in dense nanodevice arrays cluster -- a strike takes out a run of
neighbouring cells -- and then the physical layout of a triplicated bit
string suddenly matters:

* **blocked** (copy after copy): a short burst lands inside one copy and
  the majority vote absorbs it -- bursts are actually *easier* than
  uniform faults of the same count;
* **interleaved** (the three copies of each bit adjacent): one burst
  spans multiple copies of the same bit and defeats the vote.

Under uniform injection the two layouts are statistically identical,
confirming this is purely a correlation effect.
"""

from benchmarks.conftest import SMOKE, scaled
from repro.alu.nanobox import NanoBoxALU
from repro.alu.redundancy import SimplexALU
from repro.faults.campaign import FaultCampaign
from repro.faults.mask import BurstMask, ExactFractionMask
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads

FRACTION = 0.03
BURST = 4
TRIALS = scaled(5, 1)


def run_matrix():
    workloads = paper_workloads(gradient(8, 8))
    results = {}
    for scheme in ("tmr", "tmr-interleaved"):
        alu = SimplexALU(NanoBoxALU(scheme=scheme), name=f"burst[{scheme}]")
        for label, policy in (
            ("uniform", ExactFractionMask(FRACTION)),
            ("burst", BurstMask(FRACTION, BURST)),
        ):
            campaign = FaultCampaign(alu, policy, seed=5)
            results[(scheme, label)] = campaign.run_workload_suite(
                workloads, TRIALS
            ).percent_correct
    return results


def test_bench_burst_faults_vs_layout():
    results = run_matrix()
    print()
    print(f"  {'layout':>18}  {'uniform':>8}  {'burst(4)':>8}")
    for scheme in ("tmr", "tmr-interleaved"):
        print(f"  {scheme:>18}  {results[(scheme, 'uniform')]:>8.1f}  "
              f"{results[(scheme, 'burst')]:>8.1f}")

    if SMOKE:
        return
    # Uniform faults cannot tell the layouts apart...
    assert abs(
        results[("tmr", "uniform")] - results[("tmr-interleaved", "uniform")]
    ) < 6.0
    # ...bursts punish the interleaved layout hard...
    assert results[("tmr-interleaved", "burst")] < \
        results[("tmr", "burst")] - 10.0
    # ...and the blocked layout rides bursts at least as well as uniform.
    assert results[("tmr", "burst")] >= results[("tmr", "uniform")] - 3.0
