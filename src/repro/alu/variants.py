"""The twelve named ALU variants of paper Table 2, and the unit recipe.

Variant names decompose as ``alu`` + module level + bit level:

* module level: ``n`` = none, ``t`` = time redundancy, ``s`` = space
  redundancy;
* bit level: ``cmos`` = conventional gates, ``h`` = Hamming-coded LUTs,
  ``n`` = uncoded LUTs, ``s`` = triplicated-string LUTs.

:class:`ALUSpec` is the one recipe for a compute unit: a core scheme
inside a module-level composition.  :func:`variant_spec` fills it from a
paper name and :func:`build_alu` builds it.  ``TABLE2_SITE_COUNTS``
records the paper's published fault-site counts, which the construction
reproduces exactly (asserted by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.alu.base import FaultableUnit
from repro.alu.cmos import CMOSALU
from repro.alu.nanobox import NanoBoxALU
from repro.alu.redundancy import (
    COMPOSITIONS,
    SimplexALU,
    SpaceRedundantALU,
    TimeRedundantALU,
)
from repro.alu.voters import make_voter
from repro.lut.coded import DEFAULT_BLOCK_SIZE

#: Paper Table 2: potential fault-injection points per implementation.
TABLE2_SITE_COUNTS: Dict[str, int] = {
    "aluncmos": 192,
    "alunh": 672,
    "alunn": 512,
    "aluns": 1536,
    "aluscmos": 657,
    "alush": 2205,
    "alusn": 1680,
    "aluss": 5040,
    "alutcmos": 684,
    "aluth": 2232,
    "alutn": 1707,
    "aluts": 5067,
}

#: Module-level name letter -> composition.
_MODULE: Dict[str, str] = {"n": "none", "t": "time", "s": "space"}

#: Bit-level technique suffix -> core scheme ("cmos" is the gate core).
_BIT_LEVEL: Dict[str, str] = {
    "cmos": "cmos",
    "h": "hamming",
    "n": "none",
    "s": "tmr",
}

_BIT_LEVEL_LABEL: Dict[str, str] = {
    "cmos": "conventional CMOS gates",
    "hamming": "Hamming information-code lookup tables",
    "none": "no-code lookup tables",
    "tmr": "triplicated bit string lookup tables",
}

_MODULE_LABEL: Dict[str, str] = {
    "none": "no module-level redundancy",
    "time": "module-level time redundancy (three serial passes)",
    "space": "module-level space redundancy (three concurrent copies)",
}


@dataclass(frozen=True)
class ALUSpec:
    """Picklable recipe for one fault-maskable compute unit.

    A campaign work item crosses a process boundary, but the units
    themselves (LUT object graphs, gate netlists) are heavyweight and not
    worth pickling.  A work item carries this small frozen spec instead
    and each worker process rebuilds the unit; construction is
    deterministic, so a spec builds the same unit in every process.

    Attributes:
        module: module-level composition, ``"none"``, ``"space"`` or
            ``"time"``.
        scheme: the core's LUT coding scheme, or ``"cmos"`` for the
            conventional gate-level core.
        voter: the voter construction (a :func:`make_voter` kind) of a
            redundant composition; empty for ``"none"``.
        block_size: the core's Hamming block size.
        name: the built unit's site-space name.
    """

    module: str
    scheme: str
    voter: str = ""
    block_size: int = DEFAULT_BLOCK_SIZE
    name: str = ""

    def __post_init__(self) -> None:
        if self.module not in COMPOSITIONS:
            raise ValueError(
                f"unknown module composition {self.module!r}; "
                f"valid: {tuple(COMPOSITIONS)}"
            )
        if bool(self.voter) == (self.module == "none"):
            raise ValueError(
                f"a {self.module!r} composition takes "
                f"{'no' if self.module == 'none' else 'a'} voter"
            )
        if not self.name:
            raise ValueError("ALU spec requires a name")

    @classmethod
    def variant(cls, name: str) -> "ALUSpec":
        """A Table 2 variant by its paper name."""
        return variant_spec(name)

    @classmethod
    def simplex(
        cls, scheme: str, block_size: int = DEFAULT_BLOCK_SIZE, name: str = ""
    ) -> "ALUSpec":
        """A single NanoBox module with no module-level redundancy."""
        return cls(
            "none", scheme, block_size=block_size,
            name=name or f"simplex[{scheme}]",
        )

    @classmethod
    def space(cls, scheme: str, voter: str, name: str = "") -> "ALUSpec":
        """Three NanoBox copies behind a voter of the given construction."""
        return cls(
            "space", scheme, voter=voter,
            name=name or f"space[{scheme}/{voter}]",
        )

    @property
    def description(self) -> str:
        """One-line prose description of a Table 2 variant's recipe."""
        return (
            f"{_BIT_LEVEL_LABEL[self.scheme]} with "
            f"{_MODULE_LABEL[self.module]}"
        )

    def build(self) -> FaultableUnit:
        """Construct the unit."""
        if self.scheme == "cmos":
            core: FaultableUnit = CMOSALU()
        else:
            core = NanoBoxALU(scheme=self.scheme, block_size=self.block_size)
        if self.module == "none":
            return SimplexALU(core, name=self.name)
        box = SpaceRedundantALU if self.module == "space" else TimeRedundantALU
        return box(lambda: core, make_voter(self.voter), name=self.name)


def variant_names() -> Tuple[str, ...]:
    """All twelve Table 2 variant names, in the paper's table order."""
    return tuple(TABLE2_SITE_COUNTS)


def variant_spec(name: str) -> ALUSpec:
    """Return the recipe of a named Table 2 variant.

    A variant's voter uses its core's bit-level technique.
    """
    if name not in TABLE2_SITE_COUNTS:
        raise KeyError(
            f"unknown ALU variant {name!r}; valid: {', '.join(variant_names())}"
        )
    module = _MODULE[name[3]]
    scheme = _BIT_LEVEL[name[4:]]
    voter = "" if module == "none" else scheme
    return ALUSpec(module, scheme, voter=voter, name=name)


def build_alu(name: str) -> FaultableUnit:
    """Construct a Table 2 ALU variant by its paper name.

    The returned unit's ``site_count`` equals the paper's published count
    for every variant.

    >>> build_alu("aluss").site_count
    5040
    """
    return variant_spec(name).build()


def build_all() -> Dict[str, FaultableUnit]:
    """Construct all twelve variants keyed by name."""
    return {name: build_alu(name) for name in variant_names()}
