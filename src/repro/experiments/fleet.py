"""Region-sharded soak campaigns for very large cell fleets.

A 10^5-10^6-cell fleet under realistic per-cell fault rates is almost
entirely quiescent, which is exactly what the event-driven
:class:`~repro.grid.grid.NanoBoxGrid` exploits -- but one python
process is still one core.  This module shards a huge fleet into
independent column-band regions, runs each region as its own
simulation (its own seed, its own fault streams), and folds the results
back together:

* plain counters aggregate by integer addition (associative and
  commutative, so any grouping or ordering of regions yields the same
  totals -- property-tested);
* worker observability merges exactly like the PR campaign executor's:
  each worker records into a fresh observer and ships its metrics
  snapshot and trace records home, where the parent folds them in under
  a ``chunkN`` source prefix.

Regions are *independent* fabrics, not tiles of one fabric: no packet
crosses a region boundary, matching the paper's vision of many NanoBox
grids each hanging off its own control processor.  A sharded run is
therefore bit-identical to running the same regions sequentially in one
process, regardless of worker count or completion order.

The soak scenario ages an idle fleet under a temporal fault process
while a *rolling quarantine wave* sweeps the columns: every
``wave_period`` cycles the wave advances one column and slams every
cell in it past its error threshold, the watchdog quarantines them, and
periodic canary probe rounds re-admit them -- continuous lifecycle churn
at fleet scale, the event-driven grid's worst realistic case.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.temporal import TemporalFaultProcess
from repro.grid.simulator import GridSimulator
from repro.grid.watchdog import CellState, LifecyclePolicy
from repro.obs import Observer, get_observer, observing

#: Mixing stride for per-region seeds: regions of one fleet draw from
#: well-separated base seeds, and the mapping is pure so re-running any
#: region reproduces it exactly.
_REGION_SEED_STRIDE = 7919


@dataclass(frozen=True)
class FleetRegion:
    """One independent column-band shard of a fleet."""

    index: int
    rows: int
    cols: int
    seed: int

    @property
    def cells(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class RegionOutcome:
    """Counters from soaking one region (pure function of its inputs)."""

    index: int
    cells: int
    cycles: int
    fault_events: int
    quarantines: int
    readmissions: int
    retired: int
    wave_hits: int
    alive_cell_cycles: int
    total_cell_cycles: int

    @property
    def availability(self) -> float:
        """Alive-cell-cycles over total cell-cycles."""
        if not self.total_cell_cycles:
            return 1.0
        return self.alive_cell_cycles / self.total_cell_cycles


@dataclass(frozen=True)
class FleetReport:
    """Aggregate of a whole fleet soak (sum of its region outcomes)."""

    rows: int
    cols: int
    regions: int
    cells: int
    cycles: int
    fault_events: int
    quarantines: int
    readmissions: int
    retired: int
    wave_hits: int
    alive_cell_cycles: int
    total_cell_cycles: int

    @property
    def availability(self) -> float:
        if not self.total_cell_cycles:
            return 1.0
        return self.alive_cell_cycles / self.total_cell_cycles


def shard_fleet(
    rows: int, cols: int, regions: int, seed: int = 0
) -> List[FleetRegion]:
    """Split a ``rows x cols`` fleet into contiguous column-band regions.

    Column counts differ by at most one across regions; each region gets
    a well-separated deterministic seed.  ``regions`` is clamped to
    ``cols`` (a region must hold at least one column).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"fleet must be at least 1x1, got {rows}x{cols}")
    if regions < 1:
        raise ValueError(f"regions must be positive, got {regions}")
    regions = min(regions, cols)
    base, extra = divmod(cols, regions)
    return [
        FleetRegion(
            index=index,
            rows=rows,
            cols=base + (1 if index < extra else 0),
            seed=seed + _REGION_SEED_STRIDE * index,
        )
        for index in range(regions)
    ]


def _check_soak_args(ticks: int, wave_period: int, probe_interval: int) -> None:
    if ticks < 0:
        raise ValueError(f"ticks must be non-negative, got {ticks}")
    if wave_period < 0:
        raise ValueError(
            f"wave_period must be non-negative, got {wave_period}"
        )
    if probe_interval < 1:
        raise ValueError(
            f"probe_interval must be positive, got {probe_interval}"
        )


def run_fleet_region(
    region: FleetRegion,
    *,
    ticks: int,
    process: Optional[TemporalFaultProcess] = None,
    wave_period: int = 0,
    error_threshold: int = 4,
    heartbeat_decay: float = 1.0,
    readmit_clean_probes: int = 1,
    probe_interval: int = 64,
) -> RegionOutcome:
    """Soak one region: idle fabric + fault process + quarantine wave.

    The rolling wave advances one column every ``wave_period`` cycles
    (0 disables it) and overwhelms that column's heartbeats; periodic
    canary probe rounds (every ``probe_interval`` cycles) re-admit
    quarantined cells that still compute correctly.  Deterministic in
    ``region.seed``, so a re-run -- in any process -- reproduces the
    outcome exactly.

    Raises:
        ValueError: for ``ticks < 0``, ``wave_period < 0`` or
            ``probe_interval < 1``.
    """
    _check_soak_args(ticks, wave_period, probe_interval)
    sim = GridSimulator(
        rows=region.rows,
        cols=region.cols,
        error_threshold=error_threshold,
        heartbeat_decay=heartbeat_decay,
        lifecycle_policy=LifecyclePolicy(
            probing=True, readmit_clean_probes=readmit_clean_probes
        ),
        temporal_fault_process=process,
        seed=region.seed,
    )
    grid, watchdog, control = sim.grid, sim.watchdog, sim.control
    wave_hits = [0]
    alive_cell_cycles = [0]
    # Decisively past the threshold: each poll's beat decays the score
    # by ``heartbeat_decay`` before the health check, so a bare
    # threshold+1 would be rescued before the watchdog ever saw it.
    overwhelm = 3 * (error_threshold + 1)

    def wave_hook() -> None:
        cycle = grid.cycle
        if wave_period and cycle % wave_period == 0:
            column = (cycle // wave_period) % region.cols
            for row in range(region.rows):
                grid.cell(row, column).heartbeat.record_error(overwhelm)
                wave_hits[0] += 1
        alive_cell_cycles[0] += grid.alive_count()

    control.add_tick_hook(wave_hook)
    obs = get_observer()
    with obs.metrics.time("fleet.region"):
        remaining = ticks
        while remaining > 0:
            span = min(probe_interval, remaining)
            control.tick(span)
            remaining -= span
            watchdog.probe_quarantined()
    stats = sim.stats()
    obs.metrics.counter("fleet.regions").inc()
    obs.metrics.counter("fleet.fault_events").inc(stats.temporal_fault_events)
    obs.metrics.counter("fleet.quarantines").inc(stats.quarantines)
    obs.metrics.counter("fleet.readmissions").inc(stats.readmissions)
    obs.metrics.counter("fleet.wave_hits").inc(wave_hits[0])
    if obs.enabled:
        obs.trace.emit(
            "fleet_region_end",
            source=f"fleet/region{region.index}",
            cells=region.cells,
            cycles=stats.cycles,
            quarantines=stats.quarantines,
            readmissions=stats.readmissions,
        )
    return RegionOutcome(
        index=region.index,
        cells=region.cells,
        cycles=stats.cycles,
        fault_events=stats.temporal_fault_events,
        quarantines=stats.quarantines,
        readmissions=stats.readmissions,
        retired=len(
            sim.watchdog.cells_in_state(CellState.RETIRED)
        ),
        wave_hits=wave_hits[0],
        alive_cell_cycles=alive_cell_cycles[0],
        total_cell_cycles=region.cells * stats.cycles,
    )


def merge_outcomes(
    rows: int,
    cols: int,
    outcomes: List[RegionOutcome],
) -> FleetReport:
    """Fold region outcomes into one report (pure integer addition).

    Addition is associative and commutative, so the fold is invariant
    under any permutation or regrouping of ``outcomes``.
    """
    return FleetReport(
        rows=rows,
        cols=cols,
        regions=len(outcomes),
        cells=sum(o.cells for o in outcomes),
        cycles=max((o.cycles for o in outcomes), default=0),
        fault_events=sum(o.fault_events for o in outcomes),
        quarantines=sum(o.quarantines for o in outcomes),
        readmissions=sum(o.readmissions for o in outcomes),
        retired=sum(o.retired for o in outcomes),
        wave_hits=sum(o.wave_hits for o in outcomes),
        alive_cell_cycles=sum(o.alive_cell_cycles for o in outcomes),
        total_cell_cycles=sum(o.total_cell_cycles for o in outcomes),
    )


def _run_region_observed(
    payload: Tuple[FleetRegion, Dict[str, object]],
) -> Tuple[RegionOutcome, Dict[str, object], Tuple[Dict[str, object], ...]]:
    """Worker entry point: one region plus its worker observability.

    Mirrors the campaign executor's observed-chunk protocol: the worker
    records into its own fresh observer and ships the metrics snapshot
    and trace records home with the result; the parent merges them.
    """
    region, kwargs = payload
    worker_obs = Observer()
    with observing(worker_obs):
        outcome = run_fleet_region(region, **kwargs)
    return (
        outcome,
        worker_obs.metrics.snapshot(),
        worker_obs.trace.to_records(),
    )


def run_fleet_soak(
    rows: int,
    cols: int,
    *,
    ticks: int,
    regions: int = 4,
    jobs: int = 1,
    seed: int = 0,
    process: Optional[TemporalFaultProcess] = None,
    wave_period: int = 0,
    error_threshold: int = 4,
    heartbeat_decay: float = 1.0,
    readmit_clean_probes: int = 1,
    probe_interval: int = 64,
) -> FleetReport:
    """Soak a sharded fleet; aggregate region outcomes into one report.

    ``jobs > 1`` fans regions out over a process pool; each worker ships
    its observability home and the parent folds it in under a ``chunkN``
    source prefix (the executor convention).  Results are identical for
    any ``jobs`` value: every region is a pure function of its shard.

    Raises:
        ValueError: for ``ticks < 0``, ``wave_period < 0`` or
            ``probe_interval < 1``, before any region runs.
    """
    _check_soak_args(ticks, wave_period, probe_interval)
    shards = shard_fleet(rows, cols, regions, seed)
    kwargs: Dict[str, object] = dict(
        ticks=ticks,
        process=process,
        wave_period=wave_period,
        error_threshold=error_threshold,
        heartbeat_decay=heartbeat_decay,
        readmit_clean_probes=readmit_clean_probes,
        probe_interval=probe_interval,
    )
    outcomes: List[RegionOutcome]
    if jobs <= 1 or len(shards) == 1:
        outcomes = [run_fleet_region(shard, **kwargs) for shard in shards]
    else:
        obs = get_observer()
        payloads = [(shard, kwargs) for shard in shards]
        with ProcessPoolExecutor(max_workers=min(jobs, len(shards))) as pool:
            shipped = list(pool.map(_run_region_observed, payloads))
        outcomes = []
        for index, (outcome, metrics_snapshot, trace_records) in enumerate(
            shipped
        ):
            outcomes.append(outcome)
            obs.metrics.merge_snapshot(metrics_snapshot)
            if obs.enabled and trace_records:
                obs.trace.extend(
                    trace_records, source_prefix=f"chunk{index}"
                )
    return merge_outcomes(rows, cols, outcomes)


def encode_outcome(outcome: RegionOutcome) -> Dict[str, object]:
    """Lossless JSON form of one :class:`RegionOutcome` (all ints)."""
    return asdict(outcome)


def decode_outcome(payload: Dict[str, object]) -> RegionOutcome:
    """Inverse of :func:`encode_outcome` (exact round-trip)."""
    return RegionOutcome(**payload)  # type: ignore[arg-type]
