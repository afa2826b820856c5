"""Figures 7, 8, 9: percent correct versus injected fault percentage.

The paper's methodology (Section 4): eighteen injected fault percentages,
each data point the average over five trials of each of two workloads
(reverse video and hue shift, 64 eight-bit pixels), a fresh randomly
generated fault mask per computation, the flipped-to-total site ratio held
constant across ALU implementations.

Figure 7 groups the four bit-level techniques with *no* module-level fault
tolerance, Figure 8 with module-level *time* redundancy, Figure 9 with
module-level *space* redundancy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.alu.variants import build_alu
from repro.experiments.report import format_series, format_table
from repro.faults.fit import fit_for_fault_fraction
from repro.faults.stats import SampleStats
from repro.perf import (
    ALUSpec,
    CampaignWorkItem,
    PolicySpec,
    resilient_campaign_map,
    run_campaign_items,
)
from repro.workloads.bitmap import Bitmap, gradient

#: The eighteen injected fault percentages of Section 4.
PAPER_FAULT_PERCENTAGES: Tuple[float, ...] = (
    0, 0.05, 0.1, 0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 50, 75,
)

#: ALUs per figure, in the paper's legend order.
FIGURE_VARIANTS: Dict[str, Tuple[str, ...]] = {
    "figure7": ("aluncmos", "alunh", "alunn", "aluns"),
    "figure8": ("alutcmos", "aluth", "alutn", "aluts"),
    "figure9": ("aluscmos", "alush", "alusn", "aluss"),
}

FIGURE_TITLES: Dict[str, str] = {
    "figure7": "No Module-Level Fault Tolerance",
    "figure8": "Time Redundancy Module-Level Fault Tolerance",
    "figure9": "Space Redundancy Module-Level Fault Tolerance",
}


@dataclass(frozen=True)
class SeriesPoint:
    """One plotted point: a variant at one injected fault percentage."""

    variant: str
    fault_percent: float
    percent_correct: float
    stddev: float
    samples: int
    fit_rate: float


@dataclass(frozen=True)
class FigureResult:
    """All series of one figure."""

    name: str
    title: str
    fault_percents: Tuple[float, ...]
    points: Tuple[SeriesPoint, ...]

    def series(self) -> Dict[str, List[float]]:
        """Percent-correct series keyed by variant, in sweep order."""
        out: Dict[str, List[float]] = {}
        for point in self.points:
            out.setdefault(point.variant, []).append(point.percent_correct)
        return out

    def point(self, variant: str, fault_percent: float) -> SeriesPoint:
        """Look up a single plotted point."""
        for p in self.points:
            if p.variant == variant and p.fault_percent == fault_percent:
                return p
        raise KeyError(f"no point for {variant!r} at {fault_percent}%")

    def max_stddev(self) -> float:
        """Largest per-point standard deviation (paper: worst was 24.51)."""
        return max(p.stddev for p in self.points)

    def to_text(self) -> str:
        """Render as the paper's figure, in fixed-width text."""
        body = format_series(
            "fault%", list(self.fault_percents), self.series()
        )
        return f"{self.title}\n{body}"


def _sweep_items(
    variants: Sequence[str],
    fault_percents: Sequence[float],
    bitmap: Optional[Bitmap],
    trials_per_workload: int,
    seed: int,
    backend: str = "auto",
) -> List[CampaignWorkItem]:
    """The flat (variant x percent) work-item list, in sweep order.

    The whole cross product goes to the executor as one list, so a
    parallel run keeps every worker busy across variants.  A
    default-gradient sweep ships ``bitmap=None``: workers rebuild the
    8x8 gradient locally, so each pickled item is O(spec) -- a few
    hundred bytes -- rather than carrying pixel arrays per cell.
    """
    if trials_per_workload <= 0:
        raise ValueError(
            f"trials_per_workload must be positive, got {trials_per_workload}"
        )
    return [
        CampaignWorkItem(
            alu=ALUSpec.variant(variant),
            policy=PolicySpec.exact(percent / 100.0),
            trials_per_workload=trials_per_workload,
            seed=seed,
            bitmap=bitmap,
            backend=backend,
        )
        for variant in variants
        for percent in fault_percents
    ]


@functools.lru_cache(maxsize=None)
def _site_count(variant: str) -> int:
    """A variant's fault-site count; building the unit to read it costs
    up to a millisecond (the CMOS netlists), so it is built once."""
    return build_alu(variant).site_count


def _assemble_points(
    variants: Sequence[str],
    fault_percents: Sequence[float],
    results: Sequence[Optional[Any]],
) -> List[Optional[SeriesPoint]]:
    """Series points from campaign results; ``None`` passes through.

    A missing result (deadline-skipped or dead-lettered chunk in a
    resilient run) yields a ``None`` point in the same slot, so partial
    runs keep every computed cell in its proper place.
    """
    points: List[Optional[SeriesPoint]] = []
    index = 0
    for variant in variants:
        for percent in fault_percents:
            result = results[index]
            index += 1
            if result is None:
                points.append(None)
                continue
            stats: SampleStats = result.stats
            points.append(
                SeriesPoint(
                    variant=variant,
                    fault_percent=percent,
                    percent_correct=stats.mean,
                    stddev=stats.stddev,
                    samples=stats.n,
                    fit_rate=fit_for_fault_fraction(
                        percent / 100.0, _site_count(variant)
                    ),
                )
            )
    return points


def sweep_variant(
    variant: str,
    fault_percents: Sequence[float] = PAPER_FAULT_PERCENTAGES,
    bitmap: Optional[Bitmap] = None,
    trials_per_workload: int = 5,
    seed: int = 2004,
    jobs: int = 1,
    backend: str = "auto",
) -> List[SeriesPoint]:
    """Sweep one ALU variant over the injected fault percentages."""
    items = _sweep_items(
        (variant,), fault_percents, bitmap, trials_per_workload, seed, backend
    )
    points = _assemble_points(
        (variant,), fault_percents, run_campaign_items(items, jobs=jobs)
    )
    return points  # type: ignore[return-value]  # an inline run fills all


def run_figure(
    name: str,
    fault_percents: Sequence[float] = PAPER_FAULT_PERCENTAGES,
    bitmap: Optional[Bitmap] = None,
    trials_per_workload: int = 5,
    seed: int = 2004,
    jobs: int = 1,
    backend: str = "auto",
) -> FigureResult:
    """Regenerate one of Figures 7, 8, 9 by name."""
    figure = run_figure_resilient(
        name, None, fault_percents, bitmap, trials_per_workload, seed, jobs,
        backend,
    ).figure
    assert figure is not None  # an inline run computes every cell
    return figure


@dataclass(frozen=True)
class ResilientFigureRun:
    """One figure run, inline or checkpointed/budgeted.

    ``figure`` is set exactly when the run completed; its text rendering
    is the same either way.  ``points`` always holds every cell, with
    ``None`` in slots the deadline or dead-letter machinery left
    uncomputed.  ``outcome`` carries the recovery
    accounting (reused/computed chunks, retries, dead letters ...).
    """

    name: str
    title: str
    fault_percents: Tuple[float, ...]
    points: Tuple[Optional[SeriesPoint], ...]
    outcome: Any  # repro.perf.ResilientOutcome

    @property
    def figure(self) -> Optional[FigureResult]:
        if any(point is None for point in self.points):
            return None
        return FigureResult(
            name=self.name,
            title=self.title,
            fault_percents=self.fault_percents,
            points=tuple(self.points),  # type: ignore[arg-type]
        )


def _sweep_config(
    name: str,
    variants: Sequence[str],
    fault_percents: Sequence[float],
    bitmap: Optional[Bitmap],
    trials_per_workload: int,
    seed: int,
) -> Dict[str, Any]:
    """Everything that determines a sweep's results, JSON-safe.

    This is the checkpoint run key's input: two invocations share
    checkpoints exactly when this dictionary is equal.  The evaluation
    tier is not part of it: every tier gives bit-identical results.
    """
    bmp = bitmap if bitmap is not None else gradient(8, 8)
    return {
        "experiment": "figure-sweep",
        "figure": name,
        "variants": list(variants),
        "fault_percents": list(fault_percents),
        "trials_per_workload": trials_per_workload,
        "seed": seed,
        "bitmap": {
            "width": bmp.width,
            "height": bmp.height,
            "pixels": bmp.pixels,
        },
    }


def run_figure_resilient(
    name: str,
    runtime,
    fault_percents: Sequence[float] = PAPER_FAULT_PERCENTAGES,
    bitmap: Optional[Bitmap] = None,
    trials_per_workload: int = 5,
    seed: int = 2004,
    jobs: int = 1,
    backend: str = "auto",
) -> ResilientFigureRun:
    """:func:`run_figure` under an optional crash-safe campaign runtime.

    ``runtime`` is a :class:`repro.perf.ResilientRuntime`, or None to
    run every cell once, inline (what :func:`run_figure` does).  A
    completed run's ``figure`` renders byte-identically either way --
    checkpoint reuse never perturbs the numbers.

    ``backend`` is deliberately *not* part of the checkpoint run key:
    every tier produces bit-identical results, so checkpoints written
    on one tier are valid for a resume on any other.
    """
    try:
        variants = FIGURE_VARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; have {sorted(FIGURE_VARIANTS)}"
        ) from None
    items = _sweep_items(
        variants, fault_percents, bitmap, trials_per_workload, seed, backend
    )
    outcome = resilient_campaign_map(
        items,
        jobs=jobs,
        runtime=runtime,
        config=_sweep_config(
            name, variants, fault_percents, bitmap, trials_per_workload, seed
        ),
    )
    points = _assemble_points(variants, fault_percents, outcome.results)
    return ResilientFigureRun(
        name=name,
        title=FIGURE_TITLES[name],
        fault_percents=tuple(fault_percents),
        points=tuple(points),
        outcome=outcome,
    )


def partial_figure_text(run: ResilientFigureRun) -> str:
    """Render an incomplete figure run: computed cells, '...' for missing.

    Complete runs should use ``run.figure.to_text()`` instead (this
    renderer exists so a deadline-hit run still emits a well-formed
    table for every cell it did compute).
    """
    variants = FIGURE_VARIANTS[run.name]
    by_cell: Dict[Tuple[str, float], Optional[SeriesPoint]] = {}
    index = 0
    for variant in variants:
        for percent in run.fault_percents:
            by_cell[(variant, percent)] = run.points[index]
            index += 1
    rows = []
    for percent in run.fault_percents:
        row: List[str] = [f"{percent:g}"]
        for variant in variants:
            point = by_cell[(variant, percent)]
            row.append("..." if point is None else f"{point.percent_correct:.2f}")
        rows.append(tuple(row))
    body = format_table(("fault%",) + tuple(variants), rows)
    return f"{run.title} [partial]\n{body}"


def figure7(**kwargs) -> FigureResult:
    """Figure 7: bit-level techniques, no module-level redundancy."""
    return run_figure("figure7", **kwargs)


def figure8(**kwargs) -> FigureResult:
    """Figure 8: bit-level techniques under module-level time redundancy."""
    return run_figure("figure8", **kwargs)


def figure9(**kwargs) -> FigureResult:
    """Figure 9: bit-level techniques under module-level space redundancy."""
    return run_figure("figure9", **kwargs)
