"""Manufacturing-yield experiment (abstract / Section 1 threat model).

"Instead of trying to manufacture defect-free chips ... future processor
architectures must be designed to adapt to, and coexist with, substantial
numbers of manufacturing defects and high transient error rates."

This experiment manufactures many instances of each ALU variant at a
given stuck-at defect density and scores:

* **perfect yield** -- fraction of parts computing the full test-vector
  set correctly with no transient faults;
* **degraded accuracy** -- mean percent-correct of the *defective* parts
  over the paper's image workloads, with and without transient faults on
  top, quantifying graceful degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.alu.base import FaultableUnit, Opcode
from repro.alu.reference import reference_compute
from repro.alu.variants import build_alu
from repro.faults.campaign import FaultCampaign
from repro.faults.defects import DefectiveUnit, sample_defect_map
from repro.faults.mask import ExactFractionMask
from repro.faults.packing import words_for_sites
from repro.kernels import build_engine
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads

#: Functional test vectors: every opcode over corner and mixed operands.
TEST_OPERANDS: Tuple[Tuple[int, int], ...] = (
    (0x00, 0x00), (0xFF, 0xFF), (0xAA, 0x55), (0x0F, 0xF0),
    (0x01, 0xFF), (0x80, 0x80), (0xC8, 0x64), (0x3C, 0xA7),
)

#: The vector set as (opcode, a, b) rows, then as batch columns.
_TEST_VECTORS = [(int(op), a, b) for op in Opcode for a, b in TEST_OPERANDS]
_TEST_OPS, _TEST_A, _TEST_B = np.array(_TEST_VECTORS, dtype=np.int64).T
#: Fault-free reference 9-bit bundles, one per test vector.
_TEST_BUNDLES = np.array(
    [reference_compute(*vector).bundle for vector in _TEST_VECTORS],
    dtype=np.int64,
)


def functional_test(unit: FaultableUnit) -> bool:
    """True when the unit passes the full vector set fault-free.

    Units with a plan engine check every vector in one batch; the rest
    run the vectors one at a time.
    """
    return _passes(unit, build_engine(unit))


def _passes(unit: FaultableUnit, engine) -> bool:
    """:func:`functional_test` on a given plan engine (``None``: scalar)."""
    if engine is None:
        return all(
            unit.compute(*vector).bundle == want
            for vector, want in zip(_TEST_VECTORS, _TEST_BUNDLES)
        )
    words = np.zeros(
        (len(_TEST_VECTORS), words_for_sites(unit.site_count)), np.uint64
    )
    got = engine.bundles_words(_TEST_OPS, _TEST_A, _TEST_B, words)
    return bool(np.array_equal(got, _TEST_BUNDLES))


def manufacture(
    variant: str, density: float, n_parts: int, seed: int = 0
) -> List[DefectiveUnit]:
    """Fabricate ``n_parts`` instances of a variant at a defect density.

    All parts share one pristine design object (computation is pure);
    each gets an independent defect map.
    """
    if n_parts <= 0:
        raise ValueError(f"n_parts must be positive, got {n_parts}")
    design = build_alu(variant)
    parts = []
    for i in range(n_parts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        defects = sample_defect_map(design.site_count, density, rng)
        parts.append(DefectiveUnit(design, defects))
    return parts


@dataclass(frozen=True)
class YieldPoint:
    """Yield metrics for one (variant, density) cell."""

    variant: str
    density: float
    n_parts: int
    perfect_yield: float
    mean_accuracy: float         # image-workload accuracy, no transients
    mean_accuracy_transient: float  # with transients on top

    @property
    def any_defect_probability(self) -> float:
        """Probability a part has at least one defective site."""
        sites = build_alu(self.variant).site_count
        return 1.0 - (1.0 - self.density) ** sites


def yield_at(
    variant: str,
    density: float,
    n_parts: int = 20,
    transient_fraction: float = 0.01,
    seed: int = 0,
    backend: str = "auto",
) -> YieldPoint:
    """Measure yield and degradation for one variant at one density.

    ``backend`` picks the evaluation tier; every tier gives identical
    results.
    """
    parts = manufacture(variant, density, n_parts, seed=seed)
    workloads = paper_workloads(gradient(8, 8))
    # The parts share one design: build its engine once, overlay per part.
    # An explicit ``compiled`` request with no provider runs like ``auto``.
    design_engine = build_engine(
        parts[0].pristine_unit, "auto" if backend == "compiled" else backend
    )

    passing = 0
    accuracies = []
    accuracies_transient = []
    for i, part in enumerate(parts):
        engine = None if design_engine is None else part.overlay(design_engine)
        passing += _passes(part, engine)
        for fraction, scores in (
            (0.0, accuracies), (transient_fraction, accuracies_transient)
        ):
            campaign = FaultCampaign(
                part, ExactFractionMask(fraction), seed=seed + i
            )
            campaign.use_engine(engine)
            scores.append(
                campaign.run_workload_suite(
                    workloads, 1, backend=backend
                ).percent_correct
            )

    return YieldPoint(
        variant=variant,
        density=density,
        n_parts=n_parts,
        perfect_yield=passing / n_parts,
        mean_accuracy=float(np.mean(accuracies)),
        mean_accuracy_transient=float(np.mean(accuracies_transient)),
    )


def yield_sweep(
    variants: Sequence[str] = ("aluncmos", "alunn", "aluns", "aluss"),
    densities: Sequence[float] = (1e-4, 5e-4, 1e-3, 5e-3),
    n_parts: int = 15,
    seed: int = 0,
    backend: str = "auto",
) -> Dict[str, List[YieldPoint]]:
    """Sweep defect densities per variant."""
    return {
        variant: [
            yield_at(variant, d, n_parts=n_parts, seed=seed, backend=backend)
            for d in densities
        ]
        for variant in variants
    }


def yield_table_text(points: Dict[str, List[YieldPoint]]) -> str:
    """Render a yield sweep as a fixed-width table."""
    from repro.experiments.report import format_table

    rows = []
    for variant, series in points.items():
        for p in series:
            rows.append(
                (
                    variant,
                    f"{p.density:g}",
                    f"{100 * p.perfect_yield:.0f}%",
                    f"{p.mean_accuracy:.1f}",
                    f"{p.mean_accuracy_transient:.1f}",
                )
            )
    return format_table(
        ("ALU", "defect density", "perfect yield",
         "accuracy (defects only)", "accuracy (+1% transients)"),
        rows,
    )
