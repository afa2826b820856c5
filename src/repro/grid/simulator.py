"""Cycle-based full-system simulator (paper Section 7 future work).

"We also plan to develop a cycle-based, full-system simulator for running
a range of application-level workloads."  :class:`GridSimulator` is that
simulator: it assembles a grid, a watchdog, per-cell ALU fault injection,
persistent memory single-event upsets, and a cell-kill schedule, then runs
whole image-processing jobs through the control processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.alu.base import FaultableUnit
from repro.alu.nanobox import NanoBoxALU
from repro.cell.memory import memory_layout
from repro.faults.mask import MaskPolicy
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.control import ControlProcessor, JobInstruction, JobResult
from repro.grid.engine import TemporalScheduler
from repro.grid.grid import Coord, LinkFaultPolicy, NanoBoxGrid
from repro.grid.watchdog import CellState, LifecyclePolicy, Watchdog

from repro.workloads.bitmap import Bitmap
from repro.workloads.imaging import ImageWorkload


def draw_memory_upsets(
    rng: np.random.Generator, alive: np.ndarray, bits: int, rate: float
) -> List[Tuple[int, int, int]]:
    """One tick's persistent memory upsets over the alive cells.

    ``alive`` holds the alive cells' row-major flat indices in order.
    Each cell draws a binomial upset count over its ``bits`` stored bits
    and, when nonzero, that many distinct bit positions.  The counts of
    all cells come from one vectorised ``binomial`` call, which consumes
    the PCG64 stream exactly as the same number of scalar calls do.  On
    a hit the stream is rewound and redrawn through the hit cell, so its
    position draw lands where a per-cell loop would make it, and the
    scan resumes after it.  The stream therefore ends where the per-cell
    loop leaves it.  Returns ``(index, count, mask)`` for every hit
    cell, in order.
    """
    hits: List[Tuple[int, int, int]] = []
    start = 0
    while start < len(alive):
        saved = rng.bit_generator.state
        counts = rng.binomial(bits, rate, size=len(alive) - start)
        nonzero = np.flatnonzero(counts)
        if not nonzero.size:
            break
        k = int(nonzero[0])
        rng.bit_generator.state = saved
        rng.binomial(bits, rate, size=k + 1)
        count = int(counts[k])
        mask = 0
        for position in rng.choice(bits, size=count, replace=False):
            mask |= 1 << int(position)
        hits.append((int(alive[start + k]), count, mask))
        start += k + 1
    return hits


class MaskStream:
    """A per-execution fault-mask supplier on its own seeded stream.

    Each call draws one mask over ``sites`` sites from ``policy``.  The
    stream is seeded from ``entropy`` (a cell's seed and coordinate), so
    it is the same whenever and in whatever order the cell is built.
    """

    __slots__ = ("policy", "sites", "rng")

    def __init__(self, policy: MaskPolicy, sites: int, entropy: Sequence[int]):
        self.policy = policy
        self.sites = sites
        self.rng = np.random.default_rng(np.random.SeedSequence(list(entropy)))

    def __call__(self) -> int:
        return self.policy.generate(self.sites, self.rng)


class FaultInjector:
    """The simulator's per-cycle fault injection into one grid.

    Its four tick hooks run before every fabric step, in order: the
    scheduled cell kills, the temporal fault process, the persistent
    memory upsets and the periodic scrub.  It holds the injection state
    and the grid, but not the simulator, so a control processor holding
    the hooks keeps working on its own and nothing points back at the
    simulator: a finished simulator is freed by reference counting.
    """

    def __init__(
        self,
        grid: NanoBoxGrid,
        seed: int,
        kill_schedule: Optional[Dict[int, Sequence[Coord]]],
        memory_upset_rate: float,
        memory_bits: int,
        scrub_interval: int,
        temporal_fault_process: Optional[TemporalFaultProcess],
    ) -> None:
        self.grid = grid
        self._rng = np.random.default_rng(seed)
        self._kill_schedule = {
            int(cycle): list(coords)
            for cycle, coords in (kill_schedule or {}).items()
        }
        self._memory_upset_rate = memory_upset_rate
        self._memory_bits = memory_bits
        self._scrub_interval = scrub_interval
        self._memory_upsets = 0
        self._scrub_corrections = 0
        self._temporal_events = 0
        self._temporal_scheduler = None
        if temporal_fault_process is not None:
            self._temporal_scheduler = TemporalScheduler(
                grid, temporal_fault_process, seed
            )

    @property
    def tick_hooks(self) -> Tuple[Callable[[], None], ...]:
        return (
            self._apply_schedule,
            self._apply_temporal_faults,
            self._apply_memory_upsets,
            self._apply_scrub,
        )

    def _apply_schedule(self) -> None:
        coords = self._kill_schedule.pop(self.grid.cycle + 1, None)
        if coords:
            for coord in coords:
                self.grid.kill_cell(*coord)

    def _apply_temporal_faults(self) -> None:
        if self._temporal_scheduler is not None:
            self._temporal_events += self._temporal_scheduler.tick()

    def _apply_memory_upsets(self) -> None:
        if self._memory_upset_rate <= 0:
            return
        cols = self.grid.cols
        for index, count, mask in draw_memory_upsets(
            self._rng,
            self.grid.alive_indices(),
            self._memory_bits,
            self._memory_upset_rate,
        ):
            self.grid.cell(*divmod(index, cols)).memory.apply_faults(mask)
            self._memory_upsets += count

    def _apply_scrub(self) -> None:
        if self._scrub_interval <= 0:
            return
        if self.grid.cycle % self._scrub_interval != 0:
            return
        for cell in self.grid.cells():
            if cell.alive:
                self._scrub_corrections += cell.memory.scrub()


@dataclass(frozen=True)
class SimulationStats:
    """Fabric-level counters gathered after a job."""

    cycles: int
    dropped_packets: int
    failed_cells: Tuple[Coord, ...]
    salvaged_words: int
    lost_words: int
    memory_upsets: int
    corrupt_rejected: int = 0
    link_dropped: int = 0
    link_stalled_cycles: int = 0
    link_bit_flips: int = 0
    silent_corruptions: int = 0
    quarantines: int = 0
    readmissions: int = 0
    retired_cells: Tuple[Coord, ...] = ()
    probes: int = 0
    temporal_fault_events: int = 0


@dataclass(frozen=True)
class ImageJobOutcome:
    """Result of running an image workload through the grid."""

    job: JobResult
    output: Bitmap
    expected: Bitmap
    stats: SimulationStats

    @property
    def pixel_accuracy(self) -> float:
        """Fraction of pixels that arrived and are correct."""
        total = self.expected.pixel_count
        wrong = self.expected.difference_count(self.output)
        return (total - wrong) / total


class GridSimulator:
    """Composable full-system simulation harness.

    Args:
        rows, cols: grid dimensions.
        alu_scheme: bit-level LUT coding scheme for every cell's ALU.
        alu_fault_policy: per-execution transient-fault policy for cell
            ALUs (None = fault-free ALUs).
        memory_upset_rate: probability per stored memory bit per cycle of
            a persistent single-event upset (the Section 2.2 threat the
            triplicated fields defend against).
        kill_schedule: ``{cycle: [cell coordinates]}`` hard failures.
        memory_salvageable: passed through to the watchdog.
        error_threshold: per-cell heartbeat error budget.
        heartbeat_decay: leaky-bucket decay of each cell's heartbeat
            error score per cycle (0 keeps the legacy monotone tally).
        lifecycle_policy: the watchdog's health lifecycle knobs
            (quarantine grace, canary probing, re-admission budgets);
            None keeps the paper's permanent-disable semantics.
        temporal_fault_process: a per-cell transient / intermittent /
            permanent fault process (:mod:`repro.faults.temporal`)
            applied every cycle to alive cells.
        adaptive_routing: route packets around dead cells (see
            :mod:`repro.grid.routing`).
        scrub_interval: cycles between memory-scrub passes (0 disables).
            Scrubbing rewrites every valid word in canonical triplicated
            form, so upsets on protected fields must accumulate within
            one interval to defeat the majority vote.
        lut_router_scheme: build each cell's routing decision from
            error-coded lookup tables with this scheme (paper §7).
        router_fault_policy: per-decision fault policy for the LUT
            routers (requires ``lut_router_scheme``).
        link_fault_config: link-level fault injection for the fabric's
            buses (:mod:`repro.grid.linkfault`); a single config for
            every link or a per-link ``(src, dst) -> config`` callable.
        crc_enabled: CRC-frame every packet so corrupted packets are
            detected and rejected instead of silently delivered (one
            extra cycle per packet per hop).
        seed: base PRNG seed for all injection streams.
        backend: ALU evaluation tier (``scalar``/``batched``/
            ``compiled``/``auto``) of the cells' ALU work.
            ``compiled``/``auto`` wrap the design in one native kernel
            engine shared by every cell, and each compute tick evaluates
            every computing cell's result copies in one call on it;
            ``None`` keeps the plain scalar unit, one ``compute`` per
            copy.  Canary probe rounds always batch every quarantined
            cell on the fastest tier that lowers the unit, whatever this
            says.  Results are bit-identical on every tier.
        grid_engine: accepted for compatibility and must be ``"auto"``:
            there is one fabric engine.  The every-cell, every-cycle
            reference fabric lives with the tests
            (``tests/grid/dense_oracle.py``).
    """

    def __init__(
        self,
        rows: int = 4,
        cols: int = 4,
        alu_scheme: str = "tmr",
        alu_fault_policy: Optional[MaskPolicy] = None,
        memory_upset_rate: float = 0.0,
        kill_schedule: Optional[Dict[int, Sequence[Coord]]] = None,
        memory_salvageable: bool = True,
        error_threshold: int = 8,
        heartbeat_decay: float = 0.0,
        lifecycle_policy: Optional[LifecyclePolicy] = None,
        temporal_fault_process: Optional[TemporalFaultProcess] = None,
        n_words: int = 32,
        adaptive_routing: bool = False,
        scrub_interval: int = 0,
        lut_router_scheme: Optional[str] = None,
        router_fault_policy: Optional[MaskPolicy] = None,
        link_fault_config: Optional[LinkFaultPolicy] = None,
        crc_enabled: bool = False,
        seed: int = 0,
        backend: Optional[str] = None,
        grid_engine: str = "auto",
    ) -> None:
        if memory_upset_rate < 0 or memory_upset_rate >= 1:
            raise ValueError(
                f"memory_upset_rate must be in [0, 1), got {memory_upset_rate}"
            )
        if scrub_interval < 0:
            raise ValueError(
                f"scrub_interval must be non-negative, got {scrub_interval}"
            )
        if grid_engine != "auto":
            raise ValueError(
                f"grid_engine must be 'auto', got {grid_engine!r}: the "
                "simulator has one fabric engine (the dense reference "
                "grid is the test oracle in tests/grid/dense_oracle.py)"
            )
        # The design unit is built once and shared by every cell (a
        # flyweight): it holds no per-cell state, cells compute
        # sequentially, and its frozen site layout never changes.
        design: FaultableUnit = NanoBoxALU(scheme=alu_scheme)
        design.site_space.freeze()
        sites = design.site_count
        if backend is not None:
            from repro.kernels import accelerate_unit

            design = accelerate_unit(design, backend)

        def alu_factory() -> FaultableUnit:
            return design

        mask_source_factory = None
        if alu_fault_policy is not None:

            def mask_source_factory(coord: Coord) -> MaskStream:
                return MaskStream(alu_fault_policy, sites, (seed, *coord))

        router_mask_source_factory = None
        if lut_router_scheme is not None and router_fault_policy is not None:
            from repro.cell.lutrouter import LUTRouter

            router_sites = LUTRouter(lut_router_scheme).site_count

            def router_mask_source_factory(coord: Coord) -> MaskStream:
                return MaskStream(
                    router_fault_policy, router_sites, (seed, *coord, 11)
                )

        self.grid = NanoBoxGrid(
            rows,
            cols,
            alu_factory=alu_factory,
            mask_source_factory=mask_source_factory,
            n_words=n_words,
            error_threshold=error_threshold,
            heartbeat_decay=heartbeat_decay,
            adaptive_routing=adaptive_routing,
            lut_router_scheme=lut_router_scheme,
            router_mask_source_factory=router_mask_source_factory,
            link_fault_config=link_fault_config,
            crc_enabled=crc_enabled,
            link_fault_seed=seed,
        )
        self.watchdog = Watchdog(
            self.grid,
            memory_salvageable=memory_salvageable,
            policy=lifecycle_policy or LifecyclePolicy(),
        )
        self._injector = FaultInjector(
            self.grid,
            seed,
            kill_schedule,
            memory_upset_rate,
            memory_layout(n_words)[0].total_sites,
            scrub_interval,
            temporal_fault_process,
        )
        self.control = ControlProcessor(
            self.grid,
            watchdog=self.watchdog,
            tick_hooks=self._injector.tick_hooks,
        )

    @property
    def scrub_corrections(self) -> int:
        """Stored bits repaired by scrubbing so far."""
        return self._injector._scrub_corrections

    # ----------------------------------------------------------------- jobs

    def run_instructions(
        self,
        instructions: Sequence[JobInstruction],
        max_rounds: int = 3,
        shed_to_capacity: bool = False,
    ) -> JobResult:
        """Run raw instructions through the control processor."""
        return self.control.run_job(
            instructions,
            max_rounds=max_rounds,
            shed_to_capacity=shed_to_capacity,
        )

    def run_image_job(
        self,
        bitmap: Bitmap,
        workload: ImageWorkload,
        max_rounds: int = 3,
        fill_value: int = 0,
    ) -> ImageJobOutcome:
        """Process a bitmap: packetise, execute, reassemble by pixel ID.

        Pixels whose result never arrives (dropped packets, dead cells
        past the retry budget) are filled with ``fill_value`` so the
        output image always has the right shape.
        """
        compiled = workload.compile(bitmap)
        instructions: List[JobInstruction] = [
            (iid, op, a, b) for iid, (op, a, b, _expected) in enumerate(compiled)
        ]
        job = self.run_instructions(instructions, max_rounds=max_rounds)
        pixels = [
            job.results.get(iid, fill_value) for iid in range(len(compiled))
        ]
        output = bitmap.with_pixels(pixels)
        return ImageJobOutcome(
            job=job,
            output=output,
            expected=workload.apply(bitmap),
            stats=self.stats(),
        )

    # ------------------------------------------------------------- metrics

    def stats(self) -> SimulationStats:
        """Snapshot fabric counters."""
        salvaged = sum(r.salvaged_words for r in self.watchdog.reports)
        lost = sum(r.lost_words for r in self.watchdog.reports)
        link = self.grid.link_fault_statistics()
        return SimulationStats(
            cycles=self.grid.cycle,
            dropped_packets=len(self.grid.dropped_packets),
            failed_cells=self.watchdog.disabled_cells,
            salvaged_words=salvaged,
            lost_words=lost,
            memory_upsets=self._injector._memory_upsets,
            corrupt_rejected=self.grid.corrupt_rejects,
            link_dropped=self.grid.link_dropped,
            link_stalled_cycles=link.stalled_cycles,
            link_bit_flips=link.bit_flips,
            silent_corruptions=link.silent_corruptions,
            quarantines=self.watchdog.quarantines,
            readmissions=self.watchdog.readmissions,
            retired_cells=self.watchdog.cells_in_state(CellState.RETIRED),
            probes=len(self.watchdog.probe_reports),
            temporal_fault_events=self._injector._temporal_events,
        )
