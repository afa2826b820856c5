"""The NanoBox ALU family (paper Table 2).

Twelve ALU implementations crossing four bit-level techniques (conventional
CMOS gates, Hamming-coded LUTs, uncoded LUTs, triplicated-string LUTs) with
three module-level techniques (none, time redundancy, space redundancy):

======== ============== ================== =====
name     bit level      module level       sites
======== ============== ================== =====
aluncmos CMOS gates     none                 192
alunh    Hamming LUTs   none                 672
alunn    no-code LUTs   none                 512
aluns    TMR LUTs       none                1536
aluscmos CMOS gates     space (3 copies)     657
alush    Hamming LUTs   space               2205
alusn    no-code LUTs   space               1680
aluss    TMR LUTs       space               5040
alutcmos CMOS gates     time (3 passes)      684
aluth    Hamming LUTs   time                2232
alutn    no-code LUTs   time                1707
aluts    TMR LUTs       time                5067
======== ============== ================== =====

Use :func:`build_alu` to construct any variant by its paper name.
"""

from repro.alu.base import ALUResult, FaultableUnit, Opcode, RESULT_BITS, BUNDLE_BITS
from repro.alu.reference import ReferenceALU, reference_compute
from repro.alu.nanobox import NanoBoxALU
from repro.alu.cmos import CMOSALU
from repro.alu.voters import CMOSVoter, LUTVoter, make_voter
from repro.alu.redundancy import (
    SimplexALU,
    SpaceRedundantALU,
    TimeRedundantALU,
)
from repro.alu.variants import (
    ALUSpec,
    TABLE2_SITE_COUNTS,
    build_alu,
    variant_names,
    variant_spec,
)

__all__ = [
    "ALUResult",
    "ALUSpec",
    "BUNDLE_BITS",
    "CMOSALU",
    "CMOSVoter",
    "FaultableUnit",
    "LUTVoter",
    "NanoBoxALU",
    "Opcode",
    "RESULT_BITS",
    "ReferenceALU",
    "SimplexALU",
    "SpaceRedundantALU",
    "TABLE2_SITE_COUNTS",
    "TimeRedundantALU",
    "build_alu",
    "make_voter",
    "reference_compute",
    "variant_names",
    "variant_spec",
]
