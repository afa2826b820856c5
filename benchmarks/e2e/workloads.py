"""The benchmark's four workloads: inputs from a seed, one pass, checks.

Every workload calls only the library's public entry points.  A pass
makes its inputs from ``pass_seed(seed, index)``, so the same ``--seed``
always gives the same inputs.  Checks hold for any seed; the golden
digests apply only at :data:`DEFAULT_SEED` with the default sizes.

The default instances in :data:`WORKLOADS` are what the benchmark runs;
tests build tiny instances of the same classes.  Each class declares
``jobs``, the compute processes it uses, and ``passes``, the fewest
timed passes a run makes, so that every run's median ``pass_s`` has
enough samples whatever ``--seconds`` is.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Mapping, Sequence, Tuple

from repro.alu.variants import build_alu
from repro.experiments.figures import (
    FIGURE_VARIANTS,
    PAPER_FAULT_PERCENTAGES,
    FigureResult,
    run_figure,
)
from repro.experiments.fleet import FleetReport, run_fleet_soak
from repro.experiments.run_all import build_report
from repro.faults.campaign import CampaignResult, FaultCampaign
from repro.faults.mask import ExactFractionMask
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.simulator import GridSimulator, ImageJobOutcome
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import hue_shift, paper_workloads, reverse_video

#: Seed of the golden digests and the CLI default.
DEFAULT_SEED = 2004

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: One finished pass handed to the checks: (pass seed, index, output).
PassOutput = Tuple[int, int, object]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _campaign_cell(
    variant: str, percent: float, trials: int, seed: int, backend: str
) -> CampaignResult:
    """One figure cell, built exactly as the campaign executor builds it."""
    campaign = FaultCampaign(
        build_alu(variant), ExactFractionMask(percent / 100.0), seed=seed
    )
    return campaign.run_workload_suite(
        paper_workloads(gradient(8, 8)),
        trials_per_workload=trials,
        backend=backend,
    )


def _series_row(percent: float, values: Sequence[float]) -> List[str]:
    """The tokens of one ``format_series`` row."""
    return [f"{percent:g}"] + [f"{v:6.1f}".strip() for v in values]


@dataclass(frozen=True)
class FigureRun:
    """One figures pass: the three figures and their rendered text."""

    results: Tuple[FigureResult, ...]
    text: str


@dataclass(frozen=True)
class Figures:
    """Figures 7, 8 and 9 at paper methodology on the fastest tier."""

    figures: Tuple[str, ...] = ("figure7", "figure8", "figure9")
    percents: Tuple[float, ...] = PAPER_FAULT_PERCENTAGES
    trials: int = 5

    name: ClassVar[str] = "figures"
    jobs: ClassVar[int] = 1
    passes: ClassVar[int] = 3

    def pass_seed(self, seed: int, index: int) -> int:
        return seed + index

    def warm_up(self, seed: int) -> None:
        # Builds and caches every variant's unit and compiled engine.
        for figure in self.figures:
            run_figure(
                figure, fault_percents=self.percents[:2],
                trials_per_workload=1, seed=seed, backend="auto", jobs=1,
            )

    def run(self, seed: int, index: int) -> FigureRun:
        results = tuple(
            run_figure(
                figure, fault_percents=self.percents,
                trials_per_workload=self.trials, seed=seed, backend="auto",
                jobs=1,
            )
            for figure in self.figures
        )
        return FigureRun(results, "\n\n".join(r.to_text() for r in results))

    def render(self, output: FigureRun) -> str:
        return output.text + "\n" + repr([r.points for r in output.results])

    def check(self, seed: int, outputs: Sequence[PassOutput]) -> List[List[str]]:
        """0% rows read 100.0; one seed-chosen cell per figure matches
        the scalar tier trial for trial."""
        problems: List[List[str]] = []
        for pass_seed, _index, output in outputs:
            found: List[str] = []
            for result in output.results:
                for point in result.points:
                    if point.fault_percent == 0 and point.percent_correct != 100.0:
                        found.append(
                            f"{result.name} {point.variant} reads "
                            f"{point.percent_correct} at 0%"
                        )
                rng = random.Random(f"{pass_seed}/{result.name}")
                variant = rng.choice(FIGURE_VARIANTS[result.name])
                percent = rng.choice(result.fault_percents)
                scalar = _campaign_cell(
                    variant, percent, self.trials, pass_seed, "scalar"
                )
                auto = _campaign_cell(
                    variant, percent, self.trials, pass_seed, "auto"
                )
                if auto.trials != scalar.trials:
                    found.append(
                        f"{variant}@{percent}%: auto-tier trials differ "
                        f"from scalar"
                    )
                point = result.point(variant, percent)
                stats = scalar.stats
                if (point.percent_correct, point.stddev, point.samples) != (
                    stats.mean, stats.stddev, stats.n
                ):
                    found.append(
                        f"{result.name} {variant}@{percent}% is "
                        f"{point.percent_correct}, scalar gives {stats.mean}"
                    )
            problems.append(found)
        return problems

    def sim_counts(self, output: FigureRun, counters: Mapping[str, int]):
        return _campaign_counts(counters)


def _campaign_counts(counters: Mapping[str, int]) -> Dict[str, float]:
    return {
        "instructions": counters.get("campaign.instructions", 0),
        "faults_injected": counters.get("campaign.faults_injected", 0),
        "cycles": 0,
        "pixel_accuracy": 0.0,
        "quarantines": 0,
        "readmissions": 0,
        "availability": 0.0,
    }


@dataclass(frozen=True)
class Report:
    """The paper report (``run_all``, quick settings) over a two-process
    pool.  The benchmark binds itself to one CPU, so the pool's fan-out
    and merge are measured but its parallel speed-up is not."""

    quick: bool = True

    name: ClassVar[str] = "report"
    jobs: ClassVar[int] = 2
    passes: ClassVar[int] = 3

    def pass_seed(self, seed: int, index: int) -> int:
        # Every pass repeats one seed, so every pass must be byte-identical.
        return seed

    def warm_up(self, seed: int) -> None:
        # Builds and caches the figures' units and engines on the
        # report's tier; the ablations' own units are built in pass 0.
        for figure in ("figure7", "figure8", "figure9"):
            run_figure(
                figure, fault_percents=(0, 1), trials_per_workload=1,
                seed=seed,
            )

    def run(self, seed: int, index: int) -> str:
        return build_report(quick=self.quick, seed=seed, jobs=self.jobs)

    def render(self, output: str) -> str:
        return output

    def _figure7_row(self, seed: int) -> Tuple[float, List[str]]:
        """A seed-chosen Figure 7 row, recomputed on the scalar tier."""
        percents = (0, 0.5, 1, 3, 9, 30) if self.quick else PAPER_FAULT_PERCENTAGES
        trials = 2 if self.quick else 5
        percent = random.Random(f"{seed}/figure7").choice(percents)
        figure = run_figure(
            "figure7", fault_percents=(percent,), trials_per_workload=trials,
            seed=seed, backend="scalar",
        )
        values = [series[0] for series in figure.series().values()]
        return percent, _series_row(percent, values)

    def check(self, seed: int, outputs: Sequence[PassOutput]) -> List[List[str]]:
        """Passes are byte-identical; a Figure 7 row matches scalar."""
        if not outputs:
            return []
        percent, expected = self._figure7_row(seed)
        first = outputs[0][2]
        problems: List[List[str]] = []
        for _seed, index, text in outputs:
            found: List[str] = []
            if text != first:
                found.append(f"pass {index} differs from pass 0")
            section = text.split("== Figure 7 ==\n", 1)[-1].split("\n\n", 1)[0]
            rows = [line.split() for line in section.splitlines()]
            if expected not in rows:
                found.append(
                    f"Figure 7 row at {percent}% does not match scalar "
                    f"{expected}"
                )
            problems.append(found)
        return problems

    def sim_counts(self, output: str, counters: Mapping[str, int]):
        return _campaign_counts(counters)


@dataclass(frozen=True)
class GridImage:
    """The paper's two image workloads, reverse video then hue shift, as
    two 20x20 jobs, each on a fresh busy 16x16 fabric with upsets and a
    kill.  Every pass runs both, so every pass does the same work."""

    rows: int = 16
    cols: int = 16
    image: int = 20
    kill_cycle: int = 40

    name: ClassVar[str] = "grid-image"
    jobs: ClassVar[int] = 1
    passes: ClassVar[int] = 3
    #: The cell killed at ``kill_cycle``; it must end in ``failed_cells``.
    kill: ClassVar[Tuple[int, int]] = (2, 3)

    def pass_seed(self, seed: int, index: int) -> int:
        return seed + index

    def warm_up(self, seed: int) -> None:
        GridImage(rows=4, cols=4, image=8).run(seed, 0)

    def run(self, seed: int, index: int) -> Tuple[ImageJobOutcome, ...]:
        return tuple(
            self._job(seed, workload()) for workload in (reverse_video, hue_shift)
        )

    def _job(self, seed: int, workload) -> ImageJobOutcome:
        sim = GridSimulator(
            self.rows,
            self.cols,
            alu_scheme="tmr",
            alu_fault_policy=ExactFractionMask(0.01),
            memory_upset_rate=1e-6,
            scrub_interval=64,
            kill_schedule={self.kill_cycle: [self.kill]},
            seed=seed,
            backend="auto",
            grid_engine="auto",
        )
        return sim.run_image_job(
            gradient(self.image, self.image), workload, max_rounds=3
        )

    def render(self, output: Tuple[ImageJobOutcome, ...]) -> str:
        return repr([(o.job, o.output.pixels, o.stats) for o in output])

    def check(self, seed: int, outputs: Sequence[PassOutput]) -> List[List[str]]:
        problems: List[List[str]] = []
        for _seed, _index, output in outputs:
            found: List[str] = []
            for outcome in output:
                job, stats = outcome.job, outcome.stats
                if len(job.results) + len(job.missing) != job.submitted:
                    found.append(
                        f"delivered {len(job.results)} + missing "
                        f"{len(job.missing)} != submitted {job.submitted}"
                    )
                if self.kill not in stats.failed_cells:
                    found.append(f"killed cell {self.kill} not in failed_cells")
                accuracy = outcome.pixel_accuracy
                if accuracy < 0.9:
                    found.append(f"pixel accuracy {accuracy:.4f} < 0.9")
            problems.append(found)
        return problems

    def sim_counts(
        self, output: Tuple[ImageJobOutcome, ...], counters: Mapping[str, int]
    ):
        """Totals over both jobs; accuracy and availability are means."""
        cells = self.rows * self.cols
        return {
            "instructions": sum(o.job.submitted for o in output),
            "faults_injected": sum(o.stats.memory_upsets for o in output),
            "cycles": sum(o.stats.cycles for o in output),
            "pixel_accuracy": sum(o.pixel_accuracy for o in output) / len(output),
            "quarantines": sum(o.stats.quarantines for o in output),
            "readmissions": sum(o.stats.readmissions for o in output),
            "availability": sum(
                (cells - len(o.stats.failed_cells)) / cells for o in output
            ) / len(output),
        }


@dataclass(frozen=True)
class FleetSoak:
    """A ~5x10^4-cell idle sparse fleet under rolling quarantine churn."""

    rows: int = 224
    cols: int = 224
    ticks: int = 100
    regions: int = 4
    wave_period: int = 25
    probe_interval: int = 50

    name: ClassVar[str] = "fleet-soak"
    jobs: ClassVar[int] = 1
    passes: ClassVar[int] = 3

    def pass_seed(self, seed: int, index: int) -> int:
        return seed + index

    def warm_up(self, seed: int) -> None:
        FleetSoak(
            rows=8, cols=8, ticks=10, regions=2, wave_period=5,
            probe_interval=5,
        ).run(seed, 0)

    def run(self, seed: int, index: int) -> FleetReport:
        return run_fleet_soak(
            self.rows,
            self.cols,
            ticks=self.ticks,
            regions=self.regions,
            jobs=1,
            seed=seed,
            process=TemporalFaultProcess.transient(1e-6, errors_per_cycle=3),
            wave_period=self.wave_period,
            error_threshold=3,
            probe_interval=self.probe_interval,
        )

    def render(self, output: FleetReport) -> str:
        return repr(output)

    def check(self, seed: int, outputs: Sequence[PassOutput]) -> List[List[str]]:
        """The fleet-soak invariants of ``bench_ext_soak``."""
        problems: List[List[str]] = []
        waves = self.ticks // self.wave_period
        for _seed, _index, report in outputs:
            found: List[str] = []
            if report.cells != self.rows * self.cols:
                found.append(f"{report.cells} cells soaked")
            if report.cycles != self.ticks:
                found.append(f"{report.cycles} cycles, expected {self.ticks}")
            if report.quarantines < waves * self.rows:
                found.append(f"only {report.quarantines} quarantines")
            if report.readmissions <= 0:
                found.append("no readmissions")
            if report.availability <= 0.9:
                found.append(f"availability {report.availability:.4f} <= 0.9")
            problems.append(found)
        return problems

    def sim_counts(self, output: FleetReport, counters: Mapping[str, int]):
        return {
            "instructions": 0,
            "faults_injected": output.fault_events,
            "cycles": output.cycles,
            "pixel_accuracy": 0.0,
            "quarantines": output.quarantines,
            "readmissions": output.readmissions,
            "availability": output.availability,
        }


#: The benchmark's workloads at their measured sizes, by CLI name.
WORKLOADS: Dict[str, object] = {
    w.name: w for w in (Figures(), Report(), GridImage(), FleetSoak())
}


def golden_problems(
    workload, seed: int, outputs: Sequence[PassOutput]
) -> List[List[str]]:
    """Digest mismatches against ``golden.json``, which holds each
    default workload's digests of passes 0, 1, ... at the default seed."""
    expected: List[str] = []
    if seed == DEFAULT_SEED and workload == WORKLOADS.get(workload.name):
        expected = json.loads(GOLDEN_PATH.read_text())[workload.name]
    problems: List[List[str]] = []
    for _seed, index, output in outputs:
        found = []
        if index < len(expected) and digest(workload.render(output)) != expected[index]:
            found.append(f"pass {index} digest differs from golden.json")
        problems.append(found)
    return problems


def write_golden(passes: int = 8) -> None:
    """Regenerate ``golden.json`` from the current library."""
    golden: Dict[str, List[str]] = {}
    for name, workload in WORKLOADS.items():
        count = 1 if isinstance(workload, Report) else passes
        golden[name] = [
            digest(workload.render(
                workload.run(workload.pass_seed(DEFAULT_SEED, i), i)
            ))
            for i in range(count)
        ]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
