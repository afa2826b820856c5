"""Gate-level logic substrate.

The paper's baseline ALUs (``aluncmos`` / ``alutcmos`` / ``aluscmos``) are
conventional CMOS designs: logic gates rather than lookup tables, with fault
injection on the "nodes between transistors" (Figure 6b).  This package
provides a small netlist simulator with per-node fault overlay, plus the
builders that construct the exact CMOS ALU and CMOS majority-voter netlists
whose node counts reproduce Table 2 (192 nodes per ALU, 81 per voter).
"""

from repro.logic.gates import Gate, GateType, Signal, SignalKind
from repro.logic.netlist import Netlist
from repro.logic.builders import (
    build_cmos_alu,
    build_cmos_voter,
    build_full_adder,
    build_majority3,
)

__all__ = [
    "Gate",
    "GateType",
    "Netlist",
    "Signal",
    "SignalKind",
    "build_cmos_alu",
    "build_cmos_voter",
    "build_full_adder",
    "build_majority3",
]
