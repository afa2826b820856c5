"""Extension (paper §7): the router converted to lookup tables.

The other half of the control-logic-in-LUTs future work (alongside
``bench_ext_lut_control``'s flag voters): the five-case routing decision
built from comparator and decision LUTs, fault-injected at the paper's
percentages.  Reports the misroute rate per coding scheme -- a misroute
sends a packet the wrong way (recoverable by more hops or a retry) or
produces an invalid direction code (a detectable drop).
"""

import numpy as np

from benchmarks.conftest import scaled
from repro.cell.lutrouter import LUTRouter
from repro.cell.router import route_packet
from repro.faults.mask import ExactFractionMask

PERCENTS = (0.5, 1, 2, 5)
TRIALS = scaled(500, 120)
N_JOB = scaled(32, 16)


def misroute_rates(scheme: str):
    rng = np.random.default_rng(2004)
    router = LUTRouter(scheme)
    rates = []
    for percent in PERCENTS:
        policy = ExactFractionMask(percent / 100)
        wrong = 0
        for _ in range(TRIALS):
            dr, dc, cr, cc = (int(x) for x in rng.integers(0, 8, size=4))
            mask = policy.generate(router.site_count, rng)
            got, valid = router.route(dr, dc, cr, cc, fault_mask=mask)
            if not valid or got is not route_packet(dr, dc, cr, cc).direction:
                wrong += 1
        rates.append(wrong / TRIALS)
    return rates


def run_comparison():
    return {scheme: misroute_rates(scheme) for scheme in ("none", "tmr")}


def test_bench_lut_router():
    results = run_comparison()
    print()
    print(f"  {'fault %':>8}  {'uncoded':>9}  {'tmr':>9}")
    for i, percent in enumerate(PERCENTS):
        print(f"  {percent:>8g}  {100 * results['none'][i]:>8.1f}%  "
              f"{100 * results['tmr'][i]:>8.1f}%")
    print(f"  sites: uncoded {LUTRouter('none').site_count}, "
          f"tmr {LUTRouter('tmr').site_count}")

    for i in range(len(PERCENTS)):
        assert results["tmr"][i] <= results["none"][i]
    # At the 2% knee the TMR router must cut misroutes substantially.
    knee = PERCENTS.index(2)
    assert results["tmr"][knee] < results["none"][knee] * 0.5


def run_fabric_job(scheme: str):
    """LUT routers live in the fabric: whole image job at 2% router faults."""
    from repro.faults.mask import ExactFractionMask as EFM
    from repro.grid.grid import NanoBoxGrid
    from repro.grid.control import ControlProcessor
    from repro.grid.watchdog import Watchdog

    policy = EFM(0.02)

    def factory(coord):
        rng = np.random.default_rng(
            np.random.SeedSequence([2004, coord[0], coord[1]])
        )
        sites = LUTRouter(scheme).site_count
        return lambda: policy.generate(sites, rng)

    grid = NanoBoxGrid(3, 3, lut_router_scheme=scheme,
                       router_mask_source_factory=factory, n_words=12)
    cp = ControlProcessor(grid, watchdog=Watchdog(grid))
    instructions = [(i, 0b010, (i * 19) & 0xFF, 0xFF)
                    for i in range(N_JOB)]
    result = cp.run_job(instructions, max_rounds=3)
    return grid, result


def test_bench_lut_router_in_fabric():
    grid_none, result_none = run_fabric_job("none")
    grid_tmr, result_tmr = run_fabric_job("tmr")
    print()
    for label, grid, result in (("uncoded", grid_none, result_none),
                                ("tmr", grid_tmr, result_tmr)):
        got = len(result.results)
        print(f"  {label:>8}: misroutes={grid.misroutes} "
              f"invalid={grid.invalid_routes} "
              f"dropped={len(grid.dropped_packets)} results={got}/{N_JOB} "
              f"rounds={result.rounds}")
    # Misdelivered packets still compute correctly (operands travel with
    # the packet), so correctness of returned results is unconditional.
    for iid, op, a, b in [(i, 0b010, (i * 19) & 0xFF, 0xFF)
                          for i in range(N_JOB)]:
        for result in (result_none, result_tmr):
            if iid in result.results:
                assert result.results[iid] == a ^ 0xFF
    assert grid_tmr.misroutes <= grid_none.misroutes
    assert result_tmr.complete
