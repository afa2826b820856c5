"""Self-healing study: lifecycle policies under temporal fault processes.

The paper's Section 2.3 watchdog permanently disables any cell whose
heartbeat goes silent -- correct for permanent defects, wasteful for the
transient and intermittent processes real nanoscale devices exhibit.
This experiment sweeps temporal fault processes
(:mod:`repro.faults.temporal`) against lifecycle policies
(:class:`repro.grid.watchdog.LifecyclePolicy`) and measures *goodput*
(correct results per kilocycle) and *availability* (mean fraction of
cells in service, integrated per cycle), demonstrating that quarantine +
canary re-admission strictly beats permanent disable under intermittent
faults while matching it under permanent defects.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.alu.reference import reference_compute
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.control import JobInstruction
from repro.grid.simulator import GridSimulator
from repro.grid.watchdog import LifecyclePolicy
from repro.obs import get_observer

#: The ISA's four opcodes (Table 1): AND, OR, XOR, ADD.
_OPCODES = (0b000, 0b001, 0b010, 0b111)


@dataclass(frozen=True)
class PolicyConfig:
    """A named lifecycle configuration: watchdog policy + heartbeat decay."""

    name: str
    heartbeat_decay: float
    policy: LifecyclePolicy


def permanent_policy() -> PolicyConfig:
    """The paper's baseline: monotone error tally, disable forever."""
    return PolicyConfig(
        name="permanent",
        heartbeat_decay=0.0,
        policy=LifecyclePolicy(),
    )


def self_healing_policy(
    heartbeat_decay: float = 0.1,
    suspect_polls: int = 2,
    readmit_clean_probes: int = 2,
    retire_failed_rounds: int = 3,
) -> PolicyConfig:
    """The full lifecycle: leaky bucket, quarantine, probe, re-admit."""
    return PolicyConfig(
        name="self-healing",
        heartbeat_decay=heartbeat_decay,
        policy=LifecyclePolicy(
            suspect_polls=suspect_polls,
            probing=True,
            readmit_clean_probes=readmit_clean_probes,
            retire_failed_rounds=retire_failed_rounds,
        ),
    )


def default_processes() -> Tuple[TemporalFaultProcess, ...]:
    """The sweep's default taxonomy: one process per temporal class."""
    return (
        TemporalFaultProcess.transient(rate=0.002, errors_per_cycle=2),
        TemporalFaultProcess.intermittent(
            rate=0.0015, burst_length=5, errors_per_cycle=3
        ),
        TemporalFaultProcess.stuck_at(rate=0.0002),
    )


@dataclass(frozen=True)
class LifecyclePoint:
    """One (fault process, lifecycle policy) measurement."""

    process: str
    policy: str
    jobs: int
    submitted: int
    delivered_correct: int
    total_cycles: int
    availability: float
    fault_events: int
    quarantines: int
    readmissions: int
    retired: int
    shed: int
    unanswered: int

    @property
    def goodput(self) -> float:
        """Correct results delivered per kilocycle."""
        if self.total_cycles == 0:
            return 0.0
        return 1000.0 * self.delivered_correct / self.total_cycles

    @property
    def correct_fraction(self) -> float:
        """Fraction of submitted instructions answered correctly."""
        if self.submitted == 0:
            return 1.0
        return self.delivered_correct / self.submitted


def lifecycle_workload(
    n_instructions: int, start_iid: int = 0
) -> List[JobInstruction]:
    """A deterministic mixed-opcode workload with known expectations."""
    instructions: List[JobInstruction] = []
    for offset in range(n_instructions):
        iid = start_iid + offset
        op = _OPCODES[iid % len(_OPCODES)]
        a = (iid * 31) & 0xFF
        b = (iid * 17 + 5) & 0xFF
        instructions.append((iid, op, a, b))
    return instructions


def run_lifecycle_point(
    process: TemporalFaultProcess,
    config: PolicyConfig,
    *,
    jobs: int = 6,
    n_instructions: int = 96,
    rows: int = 4,
    cols: int = 4,
    n_words: int = 8,
    error_threshold: int = 8,
    max_rounds: int = 3,
    seed: int = 2004,
    backend: Optional[str] = None,
) -> LifecyclePoint:
    """Run a job series through one fabric under one policy; measure it.

    The same ``seed`` drives the same temporal fault event streams for
    every policy, so two configurations face an identical fault history
    and differ only in how the watchdog responds to it.
    """
    obs = get_observer()
    source = f"lifecycle/{config.name}"
    if obs.enabled:
        obs.trace.emit(
            "lifecycle_point_start",
            source=source,
            process=process.describe(),
            policy=config.name,
            jobs=jobs,
            seed=seed,
        )
    sim = GridSimulator(
        rows=rows,
        cols=cols,
        error_threshold=error_threshold,
        heartbeat_decay=config.heartbeat_decay,
        lifecycle_policy=config.policy,
        temporal_fault_process=process,
        n_words=n_words,
        seed=seed,
        backend=backend,
    )
    total_cells = rows * cols
    alive_cell_cycles = [0, 0]
    grid = sim.grid

    def sample_availability() -> None:
        alive_cell_cycles[0] += grid.alive_count()
        alive_cell_cycles[1] += total_cells

    sim.control.add_tick_hook(sample_availability)

    submitted = 0
    delivered_correct = 0
    unanswered = 0
    shed = 0
    next_iid = 0
    with obs.metrics.time("lifecycle.point"):
        for _ in range(jobs):
            instructions = lifecycle_workload(
                n_instructions, start_iid=next_iid
            )
            next_iid += n_instructions
            expected: Dict[int, int] = {
                iid: reference_compute(op, a, b).value
                for iid, op, a, b in instructions
            }
            job = sim.run_instructions(
                instructions, max_rounds=max_rounds, shed_to_capacity=True
            )
            submitted += job.submitted
            delivered_correct += sum(
                1
                for iid, value in job.results.items()
                if expected[iid] == value
            )
            unanswered += len(job.missing)
            shed += job.delivery.shed
    stats = sim.stats()
    availability = (
        alive_cell_cycles[0] / alive_cell_cycles[1]
        if alive_cell_cycles[1]
        else 1.0
    )
    metrics = obs.metrics
    metrics.counter("lifecycle.points").inc()
    metrics.counter("lifecycle.jobs").inc(jobs)
    metrics.counter("lifecycle.submitted").inc(submitted)
    metrics.counter("lifecycle.delivered_correct").inc(delivered_correct)
    metrics.counter("lifecycle.unanswered").inc(unanswered)
    metrics.counter("lifecycle.fault_events").inc(stats.temporal_fault_events)
    if obs.enabled:
        obs.trace.emit(
            "lifecycle_point_end",
            source=source,
            process=process.describe(),
            policy=config.name,
            submitted=submitted,
            delivered_correct=delivered_correct,
            cycles=stats.cycles,
            availability=availability,
        )
    return LifecyclePoint(
        process=process.describe(),
        policy=config.name,
        jobs=jobs,
        submitted=submitted,
        delivered_correct=delivered_correct,
        total_cycles=stats.cycles,
        availability=availability,
        fault_events=stats.temporal_fault_events,
        quarantines=stats.quarantines,
        readmissions=stats.readmissions,
        retired=len(stats.retired_cells),
        shed=shed,
        unanswered=unanswered,
    )


def lifecycle_sweep(
    processes: Optional[Sequence[TemporalFaultProcess]] = None,
    policies: Optional[Sequence[PolicyConfig]] = None,
    *,
    jobs: int = 6,
    n_instructions: int = 96,
    rows: int = 4,
    cols: int = 4,
    n_words: int = 8,
    error_threshold: int = 8,
    max_rounds: int = 3,
    seed: int = 2004,
    backend: Optional[str] = None,
) -> List[LifecyclePoint]:
    """Sweep fault processes x lifecycle policies."""
    return lifecycle_sweep_plan(
        processes,
        policies,
        jobs=jobs,
        n_instructions=n_instructions,
        rows=rows,
        cols=cols,
        n_words=n_words,
        error_threshold=error_threshold,
        max_rounds=max_rounds,
        seed=seed,
        backend=backend,
    ).run().results


def lifecycle_sweep_plan(
    processes: Optional[Sequence[TemporalFaultProcess]] = None,
    policies: Optional[Sequence[PolicyConfig]] = None,
    *,
    jobs: int = 6,
    n_instructions: int = 96,
    rows: int = 4,
    cols: int = 4,
    n_words: int = 8,
    error_threshold: int = 8,
    max_rounds: int = 3,
    seed: int = 2004,
    backend: Optional[str] = None,
):
    """:func:`lifecycle_sweep` as a :class:`~repro.perf.resilient.TaskPlan`.

    ``plan.run(runtime)`` returns a :class:`~repro.perf.ResilientOutcome`
    whose ``results`` hold the sweep's :class:`LifecyclePoint`\\ s in
    order (``None`` for deadline-skipped cells); a complete outcome's
    points equal an uninterrupted sweep's.
    """
    from repro.perf.resilient import TaskPlan

    processes = list(default_processes() if processes is None else processes)
    policies = list(
        (permanent_policy(), self_healing_policy())
        if policies is None
        else policies
    )
    tasks = [
        (process, policy) for process in processes for policy in policies
    ]
    config = {
        "experiment": "lifecycle-sweep",
        "processes": [process.describe() for process in processes],
        "policies": [
            {
                "name": policy.name,
                "heartbeat_decay": policy.heartbeat_decay,
                "policy": asdict(policy.policy),
            }
            for policy in policies
        ],
        "jobs": jobs,
        "n_instructions": n_instructions,
        "rows": rows,
        "cols": cols,
        "n_words": n_words,
        "error_threshold": error_threshold,
        "max_rounds": max_rounds,
        "seed": seed,
    }

    def run_chunk(
        _index: int, chunk: Sequence[Tuple[TemporalFaultProcess, PolicyConfig]]
    ):
        return [
            run_lifecycle_point(
                process,
                policy,
                jobs=jobs,
                n_instructions=n_instructions,
                rows=rows,
                cols=cols,
                n_words=n_words,
                error_threshold=error_threshold,
                max_rounds=max_rounds,
                seed=seed,
                backend=backend,
            )
            for process, policy in chunk
        ]

    return TaskPlan(
        tasks,
        run_chunk,
        config,
        kind="lifecycle-points",
        encode=encode_lifecycle_point,
        decode=decode_lifecycle_point,
    )


def encode_lifecycle_point(point: LifecyclePoint) -> Dict[str, Any]:
    """Lossless JSON form of one :class:`LifecyclePoint`.

    Strings, ints, and one float (``availability``); JSON round-trips
    each exactly, preserving the byte-identical resume guarantee.
    """
    return asdict(point)


def decode_lifecycle_point(payload: Dict[str, Any]) -> LifecyclePoint:
    """Inverse of :func:`encode_lifecycle_point` (exact round-trip)."""
    return LifecyclePoint(**payload)


def lifecycle_table_text(points: Sequence[LifecyclePoint]) -> str:
    """Render a sweep as the EXPERIMENTS-style fixed-width table."""
    from repro.experiments.report import format_table

    rows: List[Tuple[str, ...]] = []
    for p in points:
        rows.append(
            (
                p.process,
                p.policy,
                f"{100 * p.correct_fraction:.1f}%",
                f"{p.goodput:.1f}",
                f"{100 * p.availability:.1f}%",
                str(p.quarantines),
                str(p.readmissions),
                str(p.retired),
                str(p.shed),
                str(p.total_cycles),
            )
        )
    return format_table(
        (
            "fault process",
            "policy",
            "correct",
            "goodput/kcyc",
            "avail",
            "quar",
            "readmit",
            "retired",
            "shed",
            "cycles",
        ),
        rows,
    )
