"""Regenerate every paper table and figure and print/save the report.

Usage (the same command as ``nanobox-repro report``)::

    python -m repro.experiments.run_all [--quick] [--jobs N] [--out FILE]

``--quick`` trims trial counts for a fast smoke run; the default settings
match the paper's methodology (five trials of each of the two workloads
per plotted point).  ``--jobs N`` fans the figure and ablation campaigns
out over ``N`` worker processes; the report text is byte-identical to a
serial run (campaign streams are seed-derived, never order-derived).
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence

from repro.experiments.area import area_table_text, headline_overhead
from repro.experiments.figures import (
    PAPER_FAULT_PERCENTAGES,
    figure7,
    figure8,
    figure9,
)
from repro.experiments.fit_table import fit_table_text, headline_claims_text
from repro.experiments.report import format_series
from repro.experiments.tables import table1_text, table2_text
from repro.experiments import ablations


def build_report(quick: bool = False, seed: int = 2004, jobs: int = 1) -> str:
    """Run every experiment and assemble the full text report.

    ``jobs`` widens the campaign process pool for the figures and
    ablations; any value produces byte-identical report text.
    """
    trials = 2 if quick else 5
    percents = (0, 0.5, 1, 3, 9, 30) if quick else PAPER_FAULT_PERCENTAGES
    sections: List[str] = []

    sections.append("== Table 1 ==\n" + table1_text())
    sections.append("== Table 2 ==\n" + table2_text())

    for fig_fn, label in ((figure7, "Figure 7"), (figure8, "Figure 8"),
                          (figure9, "Figure 9")):
        result = fig_fn(
            fault_percents=percents, trials_per_workload=trials, seed=seed,
            jobs=jobs,
        )
        sections.append(
            f"== {label} ==\n{result.to_text()}\n"
            f"(max per-point stddev: {result.max_stddev():.2f} points; "
            f"paper reported a worst case of 24.51)"
        )

    sections.append("== FIT translation ==\n" + fit_table_text("aluss"))
    sections.append(
        "== Headline claims ==\n"
        + headline_claims_text(trials_per_workload=trials, seed=seed)
    )
    sections.append(
        "== Area overhead ==\n"
        + area_table_text()
        + f"\nheadline aluss/alunn = {headline_overhead():.2f}x"
    )

    ablation_runs = (
        ("Hamming decoder semantics", ablations.hamming_semantics_ablation),
        ("Bit-level redundancy order", ablations.redundancy_order_ablation),
        ("Voter construction", ablations.voter_coding_ablation),
        ("Mask policy", ablations.mask_policy_ablation),
        ("Hamming block size", ablations.hamming_block_size_ablation),
    )
    for title, fn in ablation_runs:
        series = fn(trials_per_workload=trials, jobs=jobs)
        sections.append(
            f"== Ablation: {title} ==\n"
            + format_series("fault%", list(ablations.ABLATION_PERCENTS), series)
        )

    sections.append(
        "== Extension: manufacturing yield ==\n" + _yield_section(quick, seed)
    )
    sections.append(
        "== Extension: system-check scaling ==\n" + _scaling_section(seed)
    )
    sections.append(
        "== Analysis: fault budgets at 98% ==\n" + _design_space_section()
    )

    return "\n\n".join(sections) + "\n"


def _yield_section(quick: bool, seed: int) -> str:
    from repro.experiments.defect_yield import yield_sweep, yield_table_text

    points = yield_sweep(
        variants=("aluncmos", "alunn", "aluns"),
        densities=(5e-4, 2e-3, 5e-3),
        n_parts=6 if quick else 12,
        seed=seed,
    )
    return yield_table_text(points)


def _scaling_section(seed: int) -> str:
    from repro.experiments.scaling import (
        detection_latency,
        detection_table_text,
        pipeline_scaling,
        pipeline_table_text,
    )

    detection = detection_latency(
        sizes=((2, 2), (4, 4), (8, 8)), trials=40, seed=seed
    )
    pipeline = pipeline_scaling(sizes=((2, 2), (2, 4), (4, 4)), seed=seed)
    return detection_table_text(detection) + "\n\n" + pipeline_table_text(pipeline)


def _design_space_section() -> str:
    from repro.analysis.design_space import (
        MODELLED_SCHEMES,
        fault_budget,
        fit_budget,
    )
    from repro.experiments.report import format_table

    rows = []
    for scheme in MODELLED_SCHEMES:
        rows.append(
            (
                scheme,
                f"{fault_budget(scheme, 98.0) * 100:.3f}%",
                f"{fit_budget(scheme, 98.0):.2e}",
            )
        )
    return format_table(("scheme", "max injected %", "max raw FIT"), rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run ``nanobox-repro report`` with these arguments."""
    from repro.cli import main as cli_main

    return cli_main(["report", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
