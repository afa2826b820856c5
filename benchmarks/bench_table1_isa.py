"""Table 1: the processor-cell ALU instruction set.

Runs single-instruction execution on the NanoBox lookup-table ALU per
opcode and asserts the ISA semantics the table defines.
"""

import pytest

from repro.alu.base import Opcode
from repro.alu.nanobox import NanoBoxALU
from repro.alu.reference import reference_compute
from repro.experiments.tables import table1_text


@pytest.fixture(scope="module")
def alu():
    return NanoBoxALU(scheme="tmr")


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda o: o.name)
def test_bench_instruction(alu, opcode):
    """One fault-free instruction through the TMR-coded LUT datapath."""
    result = alu.compute(int(opcode), 0xC8, 0x64)
    want = reference_compute(int(opcode), 0xC8, 0x64)
    assert (result.value, result.carry) == (want.value, want.carry)


def test_bench_table1_render():
    """Regenerate the table itself."""
    text = table1_text()
    print()
    print(text)
    for row in ("000  AND", "001  OR", "010  XOR", "111  ADD"):
        assert row.split()[1] in text
