"""Introspection: render compute units as NanoBox hierarchies.

``describe_unit`` understands the library's ALU family and produces the
box-within-a-box tree the paper draws in prose: lookup tables (bit level)
inside ALU cores, cores inside a module box with its voter and holding
registers (module level).  The grid package extends the same tree
one level up (system level) via its own describe helpers.
"""

from __future__ import annotations

from typing import List

from repro.alu.base import FaultableUnit
from repro.alu.cmos import CMOSALU
from repro.alu.nanobox import NanoBoxALU
from repro.alu.redundancy import ModuleBox
from repro.alu.reference import ReferenceALU
from repro.alu.voters import LUTVoter, Voter
from repro.core.box import FaultToleranceLevel, NanoBox

#: Module-box composition -> the technique its description names.
_BOX_TECHNIQUES = {
    "none": "none",
    "space": "space-redundancy",
    "time": "time-redundancy",
}


def _describe_nanobox_core(core: NanoBoxALU, name: str) -> NanoBox:
    luts: List[NanoBox] = []
    for seg in core.site_space.segments:
        luts.append(
            NanoBox(
                name=f"{name}.{seg.name}",
                level=FaultToleranceLevel.BIT,
                technique=core.scheme,
                sites=seg.size,
            )
        )
    return NanoBox(
        name=name,
        level=FaultToleranceLevel.BIT,
        technique=f"lut[{core.scheme}]",
        sites=core.site_count,
        children=tuple(luts),
    )


def _describe_voter(voter: Voter, name: str) -> NanoBox:
    if isinstance(voter, LUTVoter):
        technique = f"majority-vote[lut:{voter.scheme}]"
    else:
        technique = "majority-vote[cmos]"
    return NanoBox(
        name=name,
        level=FaultToleranceLevel.MODULE,
        technique=technique,
        sites=voter.site_count,
    )


def describe_unit(unit: FaultableUnit, name: str = "") -> NanoBox:
    """Return the NanoBox hierarchy of an ALU-family compute unit.

    A module box's children are its core's hierarchy under each copy
    segment, then its voter, then its holding registers; a box nested
    inside a box describes the same way, one level down.
    """
    label = name or unit.site_space.name
    if isinstance(unit, ModuleBox):
        children = [
            describe_unit(unit.core, f"{label}.{seg.name}")
            for seg in unit.copy_segments
        ]
        if unit.voter is not None:
            children.append(_describe_voter(unit.voter, f"{label}.voter"))
        if unit.stored_segments:
            children.append(
                NanoBox(
                    name=f"{label}.result_registers",
                    level=FaultToleranceLevel.MODULE,
                    technique="triplicated-storage",
                    sites=unit.storage_sites,
                )
            )
        return NanoBox(
            name=label,
            level=FaultToleranceLevel.MODULE,
            technique=_BOX_TECHNIQUES[unit.composition],
            sites=unit.site_count,
            children=tuple(children),
        )
    if isinstance(unit, NanoBoxALU):
        return _describe_nanobox_core(unit, label)
    if isinstance(unit, CMOSALU):
        return NanoBox(
            name=label,
            level=FaultToleranceLevel.BIT,
            technique="cmos-gates",
            sites=unit.site_count,
        )
    if isinstance(unit, ReferenceALU):
        return NanoBox(
            name=label,
            level=FaultToleranceLevel.MODULE,
            technique="oracle",
            sites=0,
        )
    return NanoBox(
        name=label,
        level=FaultToleranceLevel.BIT,
        technique="opaque",
        sites=unit.site_count,
    )


def render_tree(box: NanoBox, indent: str = "") -> str:
    """ASCII-render a NanoBox hierarchy, one box per line.

    LUT-level leaves of a NanoBox core are summarised (16 identical tables
    would otherwise dominate the listing).
    """
    lines = [
        f"{indent}{box.name}  [{box.level.value}/{box.technique}]  "
        f"sites={box.sites}"
    ]
    children = box.children
    if (
        len(children) > 4
        and all(not c.children for c in children)
        and len({(c.technique, c.sites) for c in children}) == 1
    ):
        c = children[0]
        lines.append(
            f"{indent}  ({len(children)} x {c.technique} leaf boxes, "
            f"{c.sites} sites each)"
        )
    else:
        for child in children:
            lines.append(render_tree(child, indent + "  "))
    return "\n".join(lines)


def area_overhead(unit: FaultableUnit, baseline: FaultableUnit) -> float:
    """Site-count ratio of ``unit`` to ``baseline``.

    Fault sites are storage bits / gate nodes, so with the paper's regular
    nanodevice layout the ratio tracks silicon (or molecular) area.  The
    headline claim -- triplicate at the bit level, triplicate again at the
    module level -- costs ``aluss``/``alunn`` = 5040/512 ~ 9.8x, the
    "area overhead on the order of 9x" of the abstract.
    """
    if baseline.site_count == 0:
        raise ValueError("baseline has no fault sites; overhead undefined")
    return unit.site_count / baseline.site_count
