"""Figure 1: the encoded-lookup-table concept, demonstrated.

Paper Figure 1 shows a sum function of four variables built (a) from
conventional combinational logic and (b) as an error-correcting lookup
table.  This bench constructs both -- the gate version on the netlist
substrate, the LUT version under each coding scheme -- verifies they
compute the same function, and injects the paper's per-fraction faults
into each to show what the encoding buys at the single-function scale.
"""

import itertools

import numpy as np

from benchmarks.conftest import scaled
from repro.faults.mask import ExactFractionMask
from repro.logic.gates import GateType
from repro.logic.hamming_checker import build_xor_tree
from repro.logic.netlist import Netlist
from repro.lut.coded import CodedLUT
from repro.lut.synth import figure1_sum_table

PERCENTS = (1, 3, 5, 10)
TRIALS = scaled(800, 200)


def build_gate_sum():
    """Figure 1(a): the sum bit from discrete XOR gates."""
    net = Netlist("figure1a")
    inputs = [net.input(name) for name in "abcd"]
    out = build_xor_tree(net, inputs, tag="sum")
    net.set_output("sum", out)
    return net


def gate_error_rate(net, fraction, rng):
    policy = ExactFractionMask(fraction)
    wrong = 0
    for _ in range(TRIALS):
        bits = [int(b) for b in rng.integers(0, 2, size=4)]
        mask = policy.generate(net.node_count, rng)
        got = net.evaluate(dict(zip("abcd", bits)), fault_mask=mask)["sum"]
        if got != sum(bits) % 2:
            wrong += 1
    return wrong / TRIALS


def lut_error_rate(lut, fraction, rng):
    policy = ExactFractionMask(fraction)
    table = lut.truth
    wrong = 0
    for _ in range(TRIALS):
        address = int(rng.integers(16))
        mask = policy.generate(lut.total_bits, rng)
        if lut.read(address, mask) != table.lookup(address):
            wrong += 1
    return wrong / TRIALS


def run_comparison():
    net = build_gate_sum()
    table = figure1_sum_table()
    # Functional equivalence first (the point of Figure 1).
    for bits in itertools.product((0, 1), repeat=4):
        assert net.evaluate(dict(zip("abcd", bits)))["sum"] == table(*bits)

    rng = np.random.default_rng(2004)
    results = {"gates": [gate_error_rate(net, p / 100, rng) for p in PERCENTS]}
    for scheme in ("none", "hamming", "tmr"):
        lut = CodedLUT(table, scheme)
        results[f"lut:{scheme}"] = [
            lut_error_rate(lut, p / 100, rng) for p in PERCENTS
        ]
    return results


def test_bench_figure1_concept():
    results = run_comparison()
    print()
    header = "  ".join(f"{k:>12}" for k in results)
    print(f"  {'fault %':>8}  {header}")
    for i, percent in enumerate(PERCENTS):
        row = "  ".join(f"{100 * results[k][i]:>11.1f}%" for k in results)
        print(f"  {percent:>8g}  {row}")

    # The TMR-encoded table is the most robust at every fraction.
    for i in range(len(PERCENTS)):
        assert results["lut:tmr"][i] <= results["lut:none"][i]
        assert results["lut:tmr"][i] <= results["gates"][i]
