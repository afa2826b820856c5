"""Module-level redundancy: one box around an ALU core (paper Section 2.2).

:class:`ModuleBox` wraps any faultable core -- a NanoBox ALU, a CMOS ALU
or another box -- in one of three compositions:

* ``"none"`` (:class:`SimplexALU`) -- no module-level fault tolerance
  (``alun*``).  Site layout: ``core``.
* ``"space"`` (:class:`SpaceRedundantALU`) -- three concurrent ALU copies
  feeding a majority voter (``alus*``).  Site layout:
  ``copy0 | copy1 | copy2 | voter``.
* ``"time"`` (:class:`TimeRedundantALU`) -- one ALU computing the
  instruction three times; each pass draws independent transient faults
  (the mask is regenerated per computation), the three 9-bit
  inter-operation results are *stored* in fault-prone registers, then
  voted (``alut*``).  Site layout:
  ``pass0 | pass1 | pass2 | voter | stored0 | stored1 | stored2``.  The
  27 storage sites are the constant "+27" between Table 2's time and
  space rows.

The three copies of a redundant box are physically identical, so they are
modelled by one core evaluated under three *independent* fault-mask
slices -- exactly equivalent to three instances, since evaluation is pure.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.alu.base import ALUResult, BUNDLE_BITS, FaultableUnit
from repro.alu.voters import Voter
from repro.faults.sites import Segment, SiteSpace

#: Number of redundant executions / copies at the module level.
MODULE_COPIES = 3

#: Module-level compositions -> the name prefix of their copy segments.
COMPOSITIONS = {"none": "core", "space": "copy", "time": "pass"}


def _storage_image_of(component) -> int:
    """Stored-bit image of a component, or 0 when it has none."""
    image_fn = getattr(component, "storage_image", None)
    return image_fn() if image_fn is not None else 0


def _static_mask_of(component) -> int:
    """Static-storage site mask of a component, or 0 when dynamic."""
    mask_fn = getattr(component, "static_site_mask", None)
    return mask_fn() if mask_fn is not None else 0


class ModuleBox(FaultableUnit):
    """A core behind a module-level composition (none, space or time).

    Args:
        core: the wrapped unit.
        voter: the module-level majority voter; ``None`` exactly when
            the composition is ``"none"``.
        composition: ``"none"``, ``"space"`` or ``"time"``.
        name: the site space's name.
    """

    def __init__(
        self,
        core: FaultableUnit,
        voter: Optional[Voter],
        composition: str,
        name: str,
    ) -> None:
        self._core = core
        self._voter = voter
        self._composition = composition
        self._space = SiteSpace(name)
        prefix = COMPOSITIONS[composition]
        if voter is None:
            self._copy_segments: Tuple[Segment, ...] = (
                self._space.add(prefix, core.site_count),
            )
            self._voter_segment: Optional[Segment] = None
        else:
            self._copy_segments = tuple(
                self._space.add(f"{prefix}{i}", core.site_count)
                for i in range(MODULE_COPIES)
            )
            self._voter_segment = self._space.add("voter", voter.site_count)
        self._stored_segments: Tuple[Segment, ...] = tuple(
            self._space.add(f"stored{i}", BUNDLE_BITS)
            for i in range(MODULE_COPIES if composition == "time" else 0)
        )

    @property
    def core(self) -> FaultableUnit:
        """The wrapped core (replicated in space, or reused in time)."""
        return self._core

    @property
    def voter(self) -> Optional[Voter]:
        """The module-level majority voter (``None`` for simplex)."""
        return self._voter

    @property
    def composition(self) -> str:
        """``"none"``, ``"space"`` or ``"time"``."""
        return self._composition

    @property
    def copy_segments(self) -> Tuple[Segment, ...]:
        """The core's segments: ``core``, or ``copy{i}`` / ``pass{i}``."""
        return self._copy_segments

    @property
    def voter_segment(self) -> Optional[Segment]:
        """The voter's segment (``None`` for simplex)."""
        return self._voter_segment

    @property
    def stored_segments(self) -> Tuple[Segment, ...]:
        """The ``stored{i}`` holding registers (time redundancy only)."""
        return self._stored_segments

    @property
    def storage_sites(self) -> int:
        """Fault sites in the inter-operation result registers."""
        return sum(seg.size for seg in self._stored_segments)

    @property
    def site_space(self) -> SiteSpace:
        return self._space

    def compute(self, op: int, a: int, b: int, fault_mask: int = 0) -> ALUResult:
        core = self._core
        if self._voter is None:
            return core.compute(
                op, a, b, fault_mask=self._copy_segments[0].extract(fault_mask)
            )
        bundles = [
            core.compute(op, a, b, fault_mask=seg.extract(fault_mask)).bundle
            for seg in self._copy_segments
        ]
        # Bit flips in a holding register corrupt the stored copy.
        for i, seg in enumerate(self._stored_segments):
            bundles[i] ^= seg.extract(fault_mask)
        voted = self._voter.vote(
            bundles[0],
            bundles[1],
            bundles[2],
            fault_mask=self._voter_segment.extract(fault_mask),
        )
        return ALUResult.from_bundle(voted)

    def _tile(self, of: Callable[[object], int]) -> int:
        """``of(core)`` at every copy plus ``of(voter)`` at the voter."""
        core_bits = of(self._core)
        bits = 0
        for segment in self._copy_segments:
            bits |= core_bits << segment.offset
        if self._voter is not None:
            bits |= of(self._voter) << self._voter_segment.offset
        return bits

    def storage_image(self) -> int:
        """Stored bits: the core image per copy plus the voter's.

        The holding-register sites carry no static content (they hold a
        different value every instruction) and contribute zeros.
        """
        return self._tile(_storage_image_of)

    def static_site_mask(self) -> int:
        """Static sites: copies and voter only -- holding registers are
        dynamic, so manufacturing defects there are modelled as persistent
        inversions by :class:`~repro.faults.defects.DefectiveUnit`."""
        return self._tile(_static_mask_of)


class SimplexALU(ModuleBox):
    """Pass-through box: one core, no module-level redundancy.

    Exists so all twelve Table 2 variants share one interface and one
    site-space layout convention.
    """

    def __init__(self, core: FaultableUnit, name: str = "simplex") -> None:
        super().__init__(core, None, "none", name)


class SpaceRedundantALU(ModuleBox):
    """Three concurrent ALU copies voted by a fault-prone majority voter."""

    def __init__(
        self,
        core_factory: Callable[[], FaultableUnit],
        voter: Voter,
        name: str = "space_redundant",
    ) -> None:
        super().__init__(core_factory(), voter, "space", name)


class TimeRedundantALU(ModuleBox):
    """One ALU core computing each instruction three times serially.

    Each pass experiences an independent draw of transient faults (the
    paper regenerates the fault mask per computation), so the core's sites
    appear three times in the site space.  Between passes the 9-bit result
    sits in a fault-prone holding register; all three stored bundles are
    voted at the end.
    """

    def __init__(
        self,
        core_factory: Callable[[], FaultableUnit],
        voter: Voter,
        name: str = "time_redundant",
    ) -> None:
        super().__init__(core_factory(), voter, "time", name)
