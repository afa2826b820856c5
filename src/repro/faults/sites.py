"""Fault-site bookkeeping.

A :class:`SiteSpace` assigns every fault-prone bit of a design a position in
one flat address space, segment by segment.  Fault masks are integers over
that space; a component extracts its share of a mask through its
:class:`Segment` handle.  The per-variant totals are the "potential fault
points" column of paper Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.coding.bits import bit_length_mask, popcount


@dataclass(frozen=True)
class Segment:
    """A named, contiguous range of fault sites."""

    name: str
    offset: int
    size: int

    @property
    def end(self) -> int:
        """One past the last site index of this segment."""
        return self.offset + self.size

    def extract(self, mask: int) -> int:
        """Return this segment's slice of a whole-design fault mask."""
        return (mask >> self.offset) & bit_length_mask(self.size)

    def inject(self, local_mask: int) -> int:
        """Lift a segment-local mask into the whole-design address space."""
        if local_mask < 0 or local_mask >> self.size:
            raise ValueError(
                f"local mask {local_mask:#x} does not fit segment "
                f"{self.name!r} of {self.size} sites"
            )
        return local_mask << self.offset

    def contains(self, site: int) -> bool:
        """True when global site index ``site`` falls inside this segment."""
        return self.offset <= site < self.end


class SiteSpace:
    """Flat fault-site address space built from named segments.

    :meth:`freeze` seals the layout: a space shared by many owners (one
    design's ALU or memory layout reused by every grid cell) must never
    grow under them.
    """

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self._segments: List[Segment] = []
        self._by_name: Dict[str, Segment] = {}
        self._total = 0
        self._frozen = False

    def freeze(self) -> "SiteSpace":
        """Reject every later :meth:`add`; returns ``self``."""
        self._frozen = True
        return self

    def add(self, name: str, size: int) -> Segment:
        """Append a segment of ``size`` sites and return its handle."""
        if self._frozen:
            raise RuntimeError(
                f"site space {self.name!r} is frozen (shared layout)"
            )
        if size < 0:
            raise ValueError(f"segment size must be non-negative, got {size}")
        if name in self._by_name:
            raise ValueError(f"duplicate segment name {name!r}")
        segment = Segment(name, self._total, size)
        self._segments.append(segment)
        self._by_name[name] = segment
        self._total += size
        return segment

    def add_space(self, name: str, other: "SiteSpace") -> Dict[str, Segment]:
        """Nest another site space's segments under a ``name.`` prefix."""
        handles: Dict[str, Segment] = {}
        for seg in other.segments:
            handles[seg.name] = self.add(f"{name}.{seg.name}", seg.size)
        return handles

    @property
    def total_sites(self) -> int:
        """Total number of fault-injection sites."""
        return self._total

    @property
    def segments(self) -> Tuple[Segment, ...]:
        return tuple(self._segments)

    def segment(self, name: str) -> Segment:
        """Look up a segment by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no segment {name!r}; have {sorted(self._by_name)}"
            ) from None

    def attribute(self, mask: int) -> Dict[str, int]:
        """Count how many mask bits landed in each segment.

        Useful for post-hoc analysis: e.g. how many of an injection's
        faults hit the module voter versus the ALU cores.
        """
        if mask < 0 or (self._total < mask.bit_length()):
            raise ValueError(
                f"mask {mask:#x} does not fit the {self._total}-site space"
            )
        return {seg.name: popcount(seg.extract(mask)) for seg in self._segments}

    def owner_of(self, site: int) -> Segment:
        """Return the segment containing global site index ``site``."""
        if site < 0 or site >= self._total:
            raise IndexError(f"site {site} out of range 0..{self._total - 1}")
        for seg in self._segments:
            if seg.contains(site):
                return seg
        raise AssertionError("unreachable: contiguous segments cover the space")

    def __iter__(self) -> Iterator[Segment]:
        return iter(self._segments)

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SiteSpace({self.name!r}, segments={len(self._segments)}, "
            f"total_sites={self._total})"
        )
