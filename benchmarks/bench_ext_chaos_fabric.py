"""Extension: chaos/soak sweep of the fault-tolerant transport fabric.

The paper sweeps ALU-level fault density; here the *links* misbehave
instead: per-bit flips on the wire image, whole-packet drops, and stall
cycles.  The sweep compares the bare fabric (corruption caught only if a
packet no longer frames) against the protected one (CRC-8 framing +
bounded retransmit with backoff), reporting delivered-correct fraction,
retransmit overhead, and watchdog disables at each operating point.

Checked claims:
* at a moderate flip rate the protected fabric delivers strictly more
  correct results than the bare one with the same retry budget;
* at rate zero the CRC costs at most one flit per packet in cycles;
* ``run_job`` never raises or hangs, even on a fabric that drops every
  packet -- it returns a :class:`JobResult` with per-cause accounting.
"""

from benchmarks.conftest import scaled
from repro.experiments.chaos_fabric import (
    chaos_sweep,
    chaos_table_text,
    run_chaos_point,
)
from repro.grid.linkfault import LinkFaultConfig
from repro.grid.simulator import GridSimulator

N_INSTRUCTIONS = 48


def run_sweep():
    return chaos_sweep(
        # The asserts key on rates 0.0 and 0.003; smoke sweeps just those.
        link_rates=scaled((0.0, 0.001, 0.003, 0.01), (0.0, 0.003)),
        retry_budgets=(1, 3),
        n_instructions=N_INSTRUCTIONS,
        seed=2004,
    )


def test_bench_chaos_fabric_sweep():
    points = run_sweep()
    print()
    print(chaos_table_text(points))

    by_key = {
        (p.bit_flip_rate, p.protected, p.max_rounds): p for p in points
    }

    # Protection pays at a moderate fault rate: strictly more correct
    # deliveries than the bare fabric with the same retry budget.
    bare = by_key[(0.003, False, 3)]
    protected = by_key[(0.003, True, 3)]
    assert protected.delivered_correct > bare.delivered_correct

    # The protected fabric never delivers a corrupted payload silently;
    # the bare fabric at nonzero rates does (that is the whole case for
    # the CRC flit).
    assert protected.silent_corruptions == 0
    assert bare.silent_corruptions > 0

    # Rate-0 overhead bound: one CRC flit per packet, two packets per
    # instruction (one in, one out), and nothing else.
    clean_bare = by_key[(0.0, False, 1)]
    clean_protected = by_key[(0.0, True, 1)]
    assert clean_bare.delivered_correct == N_INSTRUCTIONS
    assert clean_protected.delivered_correct == N_INSTRUCTIONS
    assert clean_protected.retransmissions == 0
    overhead = clean_protected.total_cycles - clean_bare.total_cycles
    assert overhead <= 2 * N_INSTRUCTIONS


def test_bench_chaos_total_loss_degrades_gracefully():
    """A fabric that drops every packet still returns, with accounting."""
    sim = GridSimulator(
        rows=3,
        cols=3,
        link_fault_config=LinkFaultConfig(drop_rate=1.0),
        crc_enabled=True,
        seed=7,
    )
    point = run_chaos_point(
        0.0, protected=True, max_rounds=2, drop_rate=1.0, seed=7
    )
    assert point.delivered == 0
    assert point.link_dropped > 0
    assert point.unassigned + point.timed_out >= point.submitted
    # The direct run_job path agrees: no exception, empty results.
    job = sim.run_instructions([(0, 0b000, 1, 2), (1, 0b111, 3, 4)])
    assert job.results == {}
    assert job.delivery.link_dropped > 0
    assert not job.complete
