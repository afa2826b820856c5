"""Permanent manufacturing-defect modeling.

The paper's premise covers two threat classes: transient noise-induced
errors *and* "large numbers of inherent device defects" baked in at
manufacture (abstract, Section 1).  The evaluation section exercises the
transients; this module supplies the defect half: stuck-at faults fixed at
construction time, so the same recursive masking hierarchy can be scored
on *yield* -- the fraction of manufactured parts that still compute
correctly -- and on graceful degradation when defects and transients
strike together.

Model: each fault site is independently defective with probability
``density``; a defective site is stuck at 0 or stuck at 1 (equally likely
by default).  For lookup-table storage a stuck-at cell is *exact* in the
XOR fault model: the delivered bit differs from the intended stored bit
precisely when the stuck value disagrees with it, and transient flips on
a dead cell have no further effect.  For sites without static content
(CMOS gate nodes, time-redundancy holding registers) a defective site is
modelled as a persistent inversion -- a slight pessimism, flagged via
:attr:`DefectiveUnit.exact`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coding.bits import bit_length_mask, popcount
from repro.faults.packing import int_to_words
from repro.faults.sites import SiteSpace


@dataclass(frozen=True)
class DefectMap:
    """Stuck-at assignment over a flat site space.

    Attributes:
        n_sites: width of the site space the map covers.
        stuck0: mask of sites permanently reading 0.
        stuck1: mask of sites permanently reading 1.
    """

    n_sites: int
    stuck0: int
    stuck1: int

    def __post_init__(self) -> None:
        for name, mask in (("stuck0", self.stuck0), ("stuck1", self.stuck1)):
            if mask < 0 or mask >> self.n_sites:
                raise ValueError(
                    f"{name} mask does not fit in {self.n_sites} sites"
                )
        if self.stuck0 & self.stuck1:
            raise ValueError("a site cannot be stuck at both 0 and 1")

    @property
    def defective_sites(self) -> int:
        """Mask of all defective sites."""
        return self.stuck0 | self.stuck1

    @property
    def defect_count(self) -> int:
        """Number of defective sites."""
        return popcount(self.defective_sites)

    @property
    def density(self) -> float:
        """Realised defect density."""
        if self.n_sites == 0:
            return 0.0
        return self.defect_count / self.n_sites

    def xor_against(self, storage_image: int) -> int:
        """Mask of sites whose stuck value disagrees with the intended
        storage -- the exact XOR equivalent of the stuck-at map for
        static storage."""
        wrong0 = storage_image & self.stuck0       # should be 1, reads 0
        wrong1 = (~storage_image) & self.stuck1    # should be 0, reads 1
        return (wrong0 | wrong1) & bit_length_mask(self.n_sites)

    @classmethod
    def pristine(cls, n_sites: int) -> "DefectMap":
        """A defect-free map."""
        return cls(n_sites=n_sites, stuck0=0, stuck1=0)


def sample_defect_map(
    n_sites: int,
    density: float,
    rng: np.random.Generator,
    stuck1_fraction: float = 0.5,
) -> DefectMap:
    """Draw a random defect map.

    Args:
        n_sites: site-space width.
        density: per-site defect probability.
        rng: seeded generator.
        stuck1_fraction: probability a defective site is stuck at 1.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be within [0, 1], got {density}")
    if not 0.0 <= stuck1_fraction <= 1.0:
        raise ValueError(
            f"stuck1_fraction must be within [0, 1], got {stuck1_fraction}"
        )
    stuck0 = 0
    stuck1 = 0
    if n_sites and density > 0.0:
        defective = rng.random(n_sites) < density
        polarity = rng.random(n_sites) < stuck1_fraction
        for i in np.nonzero(defective)[0]:
            if polarity[i]:
                stuck1 |= 1 << int(i)
            else:
                stuck0 |= 1 << int(i)
    return DefectMap(n_sites=n_sites, stuck0=stuck0, stuck1=stuck1)


def storage_image_of(unit) -> int:
    """Best-effort fault-free storage image over a unit's site space.

    Units whose sites are all static storage (NanoBox LUT ALUs, LUT
    voters, and their redundancy wrappers) return the exact stored bits;
    sites without static content contribute zeros.
    """
    image_fn = getattr(unit, "storage_image", None)
    if image_fn is None:
        return 0
    return image_fn()


class DefectiveUnit:
    """A manufactured part: a pristine design plus its defect map.

    Implements the same fault-maskable interface as the ALU family
    (``site_space`` / ``site_count`` / ``compute``), so campaigns, cells,
    and grids accept defective parts anywhere they accept pristine ones.
    ``compute`` composes the defects with per-computation transient
    masks: transient flips on dead cells are suppressed (the cell cannot
    toggle), then the defect's disagreement mask is XORed in.

    Attributes:
        exact: True when every defective site had static storage, so the
            stuck-at semantics is modelled exactly; False when some
            defects fell on dynamic sites and are approximated as
            persistent inversions.
    """

    def __init__(self, unit, defects: DefectMap) -> None:
        if defects.n_sites != unit.site_count:
            raise ValueError(
                f"defect map covers {defects.n_sites} sites but the unit "
                f"has {unit.site_count}"
            )
        self._unit = unit
        self._defects = defects
        image_fn = getattr(unit, "storage_image", None)
        if image_fn is None:
            # No static storage at all: every defect is an inversion.
            self._defect_xor = defects.defective_sites
            self.exact = defects.defect_count == 0
        else:
            image, static_mask = image_fn(), getattr(
                unit, "static_site_mask", lambda: bit_length_mask(unit.site_count)
            )()
            static_defects = defects.defective_sites & static_mask
            dynamic_defects = defects.defective_sites & ~static_mask
            self._defect_xor = (
                defects.xor_against(image) & static_mask
            ) | dynamic_defects
            self.exact = dynamic_defects == 0

    @property
    def pristine_unit(self):
        """The underlying defect-free design."""
        return self._unit

    @property
    def defects(self) -> DefectMap:
        return self._defects

    @property
    def site_space(self) -> SiteSpace:
        return self._unit.site_space

    @property
    def site_count(self) -> int:
        """Total fault-injection sites (same space as the design's)."""
        return self._unit.site_count

    def compute(self, op: int, a: int, b: int, fault_mask: int = 0):
        """Execute one instruction: permanent defects + transient mask."""
        effective = (fault_mask & ~self._defects.defective_sites) ^ self._defect_xor
        return self._unit.compute(op, a, b, fault_mask=effective)

    def overlay(self, engine) -> "DefectOverlay":
        """This part's defects over its pristine design's plan engine."""
        n_sites = self.site_count
        clear = int_to_words(self._defects.defective_sites, n_sites)
        flip = int_to_words(self._defect_xor, n_sites)
        return DefectOverlay(engine, keep=~clear, flip=flip)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DefectiveUnit({self._unit.site_space.name!r}, "
            f"defects={self._defects.defect_count}/{self._defects.n_sites})"
        )


class DefectOverlay:
    """A pristine design's plan engine seen through one part's defects.

    Applies :meth:`DefectiveUnit.compute`'s transform,
    ``effective = (m & ~defective) ^ defect_xor``, to every packed mask
    row of a batch at once, then evaluates the rows on the wrapped
    engine (either executor).  Every other attribute is the engine's.
    """

    def __init__(self, engine, keep: np.ndarray, flip: np.ndarray) -> None:
        self._engine = engine
        self._keep = keep
        self._flip = flip

    def _apply(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self._flip.shape[0]:
            return rows  # malformed: the engine raises its own shape error
        return (rows.astype(self._keep.dtype, copy=False) & self._keep) ^ self._flip

    def bundles_words(self, ops, a, b, words):
        return self._engine.bundles_words(ops, a, b, self._apply(words))

    def values_words(self, ops, a, b, words):
        return self._engine.values_words(ops, a, b, self._apply(words))

    def __getattr__(self, name: str):
        return getattr(self._engine, name)
