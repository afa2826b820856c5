"""Extension (paper §7): non-streaming workloads on the grid.

Streaming kernels finish in one shift-in/compute/shift-out round; a
dependent computation needs one round per dependency wave, with the CMOS
control processor resolving operands between waves.  This bench runs a
balanced XOR-reduction tree and an FIR-like filter through the grid and
measures the per-wave cost -- the adaptation the paper's future work
asks about.
"""

from benchmarks.conftest import scaled
from repro.grid.simulator import GridSimulator
from repro.workloads.dataflow import (
    GridDataflowExecutor,
    checksum_tree_program,
    fir_filter_program,
)

N_LEAVES = scaled(16, 8)
DATA = [(i * 37 + 11) & 0xFF for i in range(N_LEAVES)]


def run_checksum_tree():
    sim = GridSimulator(rows=3, cols=3, seed=13)
    program = checksum_tree_program(DATA)
    outcome = GridDataflowExecutor(sim).run(program)
    return sim, program, outcome


def test_bench_dataflow_checksum_tree():
    sim, program, outcome = run_checksum_tree()
    print()
    print(f"  {len(program)} nodes in {program.depth} waves, "
          f"{sim.grid.cycle} total fabric cycles")
    assert outcome.complete
    assert outcome.results == program.reference_results()
    assert outcome.waves_executed == N_LEAVES.bit_length() - 1  # log2


def run_fir():
    sim = GridSimulator(rows=3, cols=3, seed=14)
    program = fir_filter_program(DATA[:scaled(10, 8)])
    outcome = GridDataflowExecutor(sim).run(program)
    return program, outcome


def test_bench_dataflow_fir():
    program, outcome = run_fir()
    print()
    print(f"  FIR: {len(program)} nodes, depth {program.depth}, "
          f"complete={outcome.complete}")
    assert outcome.complete
    assert outcome.accuracy_against(program.reference_results()) == 1.0
