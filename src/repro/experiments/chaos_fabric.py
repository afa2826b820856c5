"""Chaos/soak study of the fault-tolerant communication fabric.

The paper's Figures 7-9 sweep ALU-level fault density against
percent-correct; this module is the fabric analogue: it sweeps
*link-level* fault rates x retry budgets and reports the
delivered-correct fraction, the retransmit overhead in cycles and
packets, and how many cells the watchdog disabled along the way --
with and without the CRC + retransmit protection, so the protocol's
value (and its rate-0 overhead) is measured rather than asserted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.alu.reference import reference_compute
from repro.grid.control import JobInstruction
from repro.grid.linkfault import LinkFaultConfig
from repro.grid.simulator import GridSimulator

#: Default link bit-flip rates swept (per wire bit per link traversal).
DEFAULT_LINK_RATES = (0.0, 0.001, 0.003, 0.01)

#: Default retransmit budgets swept (total submission rounds).
DEFAULT_RETRY_BUDGETS = (1, 3)


@dataclass(frozen=True)
class ChaosPoint:
    """One (link fault rate, protection, retry budget) measurement."""

    bit_flip_rate: float
    drop_rate: float
    stall_rate: float
    protected: bool  # CRC framing + retransmit protocol on
    max_rounds: int
    submitted: int
    delivered: int
    delivered_correct: int
    total_cycles: int
    rounds_used: int
    retransmissions: int
    duplicates: int
    timed_out: int
    corrupt_rejected: int
    link_dropped: int
    silent_corruptions: int
    unassigned: int
    watchdog_disables: int

    @property
    def delivered_correct_fraction(self) -> float:
        """Fraction of submitted instructions answered *correctly*."""
        if self.submitted == 0:
            return 1.0
        return self.delivered_correct / self.submitted

    @property
    def retransmit_overhead_packets(self) -> float:
        """Extra injections per submitted instruction."""
        if self.submitted == 0:
            return 0.0
        return self.retransmissions / self.submitted


#: The ISA's four opcodes (Table 1): AND, OR, XOR, ADD.
_OPCODES = (0b000, 0b001, 0b010, 0b111)


def chaos_workload(n_instructions: int) -> List[JobInstruction]:
    """A deterministic mixed-opcode workload with known expectations."""
    instructions: List[JobInstruction] = []
    for iid in range(n_instructions):
        op = _OPCODES[iid % len(_OPCODES)]
        a = (iid * 31) & 0xFF
        b = (iid * 17 + 5) & 0xFF
        instructions.append((iid, op, a, b))
    return instructions


def expected_results(instructions: Sequence[JobInstruction]):
    return {
        iid: reference_compute(op, a, b).value
        for iid, op, a, b in instructions
    }


def run_chaos_point(
    bit_flip_rate: float,
    *,
    protected: bool,
    max_rounds: int = 3,
    drop_rate: float = 0.0,
    stall_rate: float = 0.0,
    rows: int = 3,
    cols: int = 3,
    n_instructions: int = 48,
    error_threshold: int = 8,
    adaptive_routing: bool = False,
    seed: int = 2004,
    backend: Optional[str] = None,
) -> ChaosPoint:
    """Run one job through a fabric with the given link fault rates.

    ``protected=True`` turns on CRC framing (detection) and leaves the
    retransmit budget at ``max_rounds``; ``protected=False`` measures
    the bare fabric, where corrupted packets are only caught if they no
    longer frame at all.
    """
    config = LinkFaultConfig(
        bit_flip_rate=bit_flip_rate,
        drop_rate=drop_rate,
        stall_rate=stall_rate,
    )
    sim = GridSimulator(
        rows=rows,
        cols=cols,
        error_threshold=error_threshold,
        adaptive_routing=adaptive_routing,
        link_fault_config=config if config.any_faults else None,
        crc_enabled=protected,
        seed=seed,
        backend=backend,
    )
    instructions = chaos_workload(n_instructions)
    expected = expected_results(instructions)
    job = sim.run_instructions(instructions, max_rounds=max_rounds)
    stats = sim.stats()
    correct = sum(
        1 for iid, value in job.results.items() if expected.get(iid) == value
    )
    return ChaosPoint(
        bit_flip_rate=bit_flip_rate,
        drop_rate=drop_rate,
        stall_rate=stall_rate,
        protected=protected,
        max_rounds=max_rounds,
        submitted=job.submitted,
        delivered=len(job.results),
        delivered_correct=correct,
        total_cycles=job.cycles.total,
        rounds_used=job.rounds,
        retransmissions=job.delivery.retransmissions,
        duplicates=job.delivery.duplicates,
        timed_out=job.delivery.timed_out,
        corrupt_rejected=job.delivery.corrupt_rejected,
        link_dropped=job.delivery.link_dropped,
        silent_corruptions=stats.silent_corruptions,
        unassigned=len(job.unassigned),
        watchdog_disables=len(stats.failed_cells),
    )


def chaos_sweep(
    link_rates: Sequence[float] = DEFAULT_LINK_RATES,
    retry_budgets: Sequence[int] = DEFAULT_RETRY_BUDGETS,
    *,
    drop_rate: float = 0.0,
    stall_rate: float = 0.0,
    rows: int = 3,
    cols: int = 3,
    n_instructions: int = 48,
    seed: int = 2004,
    backend: Optional[str] = None,
) -> List[ChaosPoint]:
    """Sweep link fault rates x retry budgets, protected and bare."""
    return chaos_sweep_plan(
        link_rates,
        retry_budgets,
        drop_rate=drop_rate,
        stall_rate=stall_rate,
        rows=rows,
        cols=cols,
        n_instructions=n_instructions,
        seed=seed,
        backend=backend,
    ).run().results


def chaos_sweep_plan(
    link_rates: Sequence[float] = DEFAULT_LINK_RATES,
    retry_budgets: Sequence[int] = DEFAULT_RETRY_BUDGETS,
    *,
    drop_rate: float = 0.0,
    stall_rate: float = 0.0,
    rows: int = 3,
    cols: int = 3,
    n_instructions: int = 48,
    seed: int = 2004,
    backend: Optional[str] = None,
):
    """:func:`chaos_sweep` as a :class:`~repro.perf.resilient.TaskPlan`.

    ``plan.run(runtime)`` returns a :class:`~repro.perf.ResilientOutcome`
    whose ``results`` hold the sweep's :class:`ChaosPoint`\\ s in order
    (``None`` for cells a deadline left uncomputed); a complete
    outcome's points are identical to an uninterrupted sweep's.
    """
    from repro.perf.resilient import TaskPlan

    tasks = [
        (rate, budget, protected)
        for rate in link_rates
        for budget in retry_budgets
        for protected in (False, True)
    ]
    config = {
        "experiment": "chaos-fabric-sweep",
        "link_rates": list(link_rates),
        "retry_budgets": list(retry_budgets),
        "drop_rate": drop_rate,
        "stall_rate": stall_rate,
        "rows": rows,
        "cols": cols,
        "n_instructions": n_instructions,
        "seed": seed,
    }

    def run_chunk(_index: int, chunk: Sequence[Tuple[float, int, bool]]):
        return [
            run_chaos_point(
                rate,
                protected=protected,
                max_rounds=budget,
                drop_rate=drop_rate,
                stall_rate=stall_rate,
                rows=rows,
                cols=cols,
                n_instructions=n_instructions,
                seed=seed,
                backend=backend,
            )
            for rate, budget, protected in chunk
        ]

    return TaskPlan(
        tasks,
        run_chunk,
        config,
        kind="chaos-points",
        encode=encode_chaos_point,
        decode=decode_chaos_point,
    )


def encode_chaos_point(point: ChaosPoint) -> Dict[str, Any]:
    """Lossless JSON form of one :class:`ChaosPoint`.

    All fields are ints, bools, and floats; JSON round-trips every one
    exactly, which the byte-identical resume guarantee depends on.
    """
    return asdict(point)


def decode_chaos_point(payload: Dict[str, Any]) -> ChaosPoint:
    """Inverse of :func:`encode_chaos_point` (exact round-trip)."""
    return ChaosPoint(**payload)


def chaos_table_text(points: Sequence[ChaosPoint]) -> str:
    """Render a sweep as the EXPERIMENTS-style fixed-width table."""
    from repro.experiments.report import format_table

    rows: List[Tuple[str, ...]] = []
    for p in points:
        rows.append(
            (
                f"{p.bit_flip_rate:g}",
                "crc+retry" if p.protected else "bare",
                str(p.max_rounds),
                f"{100 * p.delivered_correct_fraction:.1f}%",
                str(p.retransmissions),
                str(p.corrupt_rejected),
                str(p.link_dropped),
                str(p.silent_corruptions),
                str(p.timed_out),
                str(p.watchdog_disables),
                str(p.total_cycles),
            )
        )
    return format_table(
        (
            "flip rate",
            "fabric",
            "rounds",
            "correct",
            "retx",
            "crc/frame rej",
            "lost",
            "silent",
            "timeout",
            "disabled",
            "cycles",
        ),
        rows,
    )
