"""System-scaling studies (paper Section 6.2).

The paper's argument against Teramac/Phoenix-style *external*
reconfiguration: "Periodic system testing becomes a critical bottleneck
as computer systems scale in size ... Our NanoBox architecture addresses
the system check bottleneck by distributing the checking circuitry into
the logic blocks themselves."

Two measured studies on our own substrate:

* **failure-detection latency** -- an external surveyor that polls one
  cell per cycle (the periodic-survey model) versus the NanoBox
  watchdog's every-cycle heartbeat sampling.  External latency grows
  with cell count; the watchdog's stays constant.
* **pipeline scaling** -- cycles to run a fixed 64-pixel job as the grid
  grows.  The per-column edge buses parallelise shift-in, so more
  columns shorten the dominant phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.grid.grid import Coord, NanoBoxGrid
from repro.grid.simulator import GridSimulator
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import reverse_video


class ExternalSurveyChecker:
    """Teramac/Phoenix-style periodic surveyor.

    Polls exactly one cell per cycle, round-robin, and reports a failure
    only when its pointer lands on the dead cell -- the survey-cadence
    bottleneck the paper criticises.
    """

    def __init__(self, grid: NanoBoxGrid) -> None:
        self._grid = grid
        self._order: List[Coord] = list(grid.all_coords())
        self._pointer = 0
        self.cycles_polled = 0

    @property
    def cells_per_survey(self) -> int:
        """Cycles needed for one complete pass over the grid."""
        return len(self._order)

    def poll_one(self) -> List[Coord]:
        """Advance one cycle: test a single cell; report it if dead."""
        coord = self._order[self._pointer]
        self._pointer = (self._pointer + 1) % len(self._order)
        self.cycles_polled += 1
        if not self._grid.cell(*coord).alive:
            return [coord]
        return []


@dataclass(frozen=True)
class DetectionPoint:
    """Mean failure-detection latency for one grid size."""

    rows: int
    cols: int
    cells: int
    external_latency: float
    watchdog_latency: float

    @property
    def ratio(self) -> float:
        """How many times slower the external survey detects."""
        return self.external_latency / self.watchdog_latency


def detection_latency(
    sizes: Sequence[Tuple[int, int]] = ((2, 2), (4, 4), (8, 8)),
    trials: int = 50,
    seed: int = 0,
) -> List[DetectionPoint]:
    """Measure detection latency per grid size for both checkers.

    Per trial: build the grid, kill a random cell at a random phase of
    the surveyor's round, count cycles until each checker reports it.
    The watchdog samples every cell's heartbeat every cycle, so its
    latency is one cycle by construction; the external surveyor needs up
    to a full survey pass.
    """
    points: List[DetectionPoint] = []
    rng = np.random.default_rng(seed)
    for rows, cols in sizes:
        external_samples = []
        for _ in range(trials):
            grid = NanoBoxGrid(rows, cols)
            checker = ExternalSurveyChecker(grid)
            # Advance the surveyor to a random phase, then fail a cell.
            for _ in range(int(rng.integers(checker.cells_per_survey))):
                checker.poll_one()
            victim = (
                int(rng.integers(rows)),
                int(rng.integers(cols)),
            )
            grid.kill_cell(*victim)
            latency = 0
            while True:
                latency += 1
                if checker.poll_one():
                    break
            external_samples.append(latency)
        points.append(
            DetectionPoint(
                rows=rows,
                cols=cols,
                cells=rows * cols,
                external_latency=float(np.mean(external_samples)),
                watchdog_latency=1.0,
            )
        )
    return points


@dataclass(frozen=True)
class PipelinePoint:
    """Cycle budget for the fixed 64-pixel job on one grid size."""

    rows: int
    cols: int
    shift_in: int
    compute: int
    shift_out: int

    @property
    def total(self) -> int:
        return self.shift_in + self.compute + self.shift_out


def pipeline_scaling(
    sizes: Sequence[Tuple[int, int]] = ((2, 2), (2, 4), (4, 4), (4, 8)),
    seed: int = 0,
) -> List[PipelinePoint]:
    """Run the 64-pixel reverse-video job across grid sizes."""
    points: List[PipelinePoint] = []
    for rows, cols in sizes:
        sim = GridSimulator(rows=rows, cols=cols, seed=seed)
        outcome = sim.run_image_job(gradient(8, 8), reverse_video())
        if outcome.pixel_accuracy != 1.0:
            raise AssertionError(
                f"fault-free job lost pixels on {rows}x{cols}"
            )
        cycles = outcome.job.cycles
        points.append(
            PipelinePoint(
                rows=rows,
                cols=cols,
                shift_in=cycles.shift_in,
                compute=cycles.compute,
                shift_out=cycles.shift_out,
            )
        )
    return points


def detection_table_text(points: Sequence[DetectionPoint]) -> str:
    """Render the detection-latency comparison."""
    from repro.experiments.report import format_table

    rows = [
        (
            f"{p.rows}x{p.cols}",
            p.cells,
            f"{p.external_latency:.1f}",
            f"{p.watchdog_latency:.1f}",
            f"{p.ratio:.1f}x",
        )
        for p in points
    ]
    return (
        "Failure-detection latency (cycles): external survey vs "
        "distributed heartbeat\n"
        + format_table(
            ("grid", "cells", "external survey", "NanoBox watchdog",
             "slowdown"),
            rows,
        )
    )


def pipeline_table_text(points: Sequence[PipelinePoint]) -> str:
    """Render the pipeline-scaling table."""
    from repro.experiments.report import format_table

    rows = [
        (f"{p.rows}x{p.cols}", p.shift_in, p.compute, p.shift_out, p.total)
        for p in points
    ]
    return "64-pixel job cycle budget vs grid size\n" + format_table(
        ("grid", "shift-in", "compute", "shift-out", "total"), rows
    )
