"""FPGA-style lookup-table substrate.

The fundamental NanoBox logic unit is a lookup table whose truth-table bit
string carries error correction (paper Section 2.1, Figure 1b).  This
package provides:

* :class:`TruthTable` -- an immutable k-input / 1-output truth table;
* :mod:`repro.lut.synth` -- truth-table synthesis from Python predicates;
* :class:`CodedLUT` -- a truth table stored under a bit-level code
  (none / Hamming / triplicated / parity) with per-read fault overlay, the
  unit on which the paper's fault masks land.
"""

from repro.lut.table import TruthTable
from repro.lut.synth import figure1_sum_table, synthesize
from repro.lut.coded import CodedLUT, LUTReadTrace

__all__ = [
    "CodedLUT",
    "LUTReadTrace",
    "TruthTable",
    "figure1_sum_table",
    "synthesize",
]
