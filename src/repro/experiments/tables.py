"""Tables 1 and 2 of the paper.

Table 1 is the processor-cell ISA; Table 2 names the twelve ALU
implementations and their potential fault-injection site counts.  Our
constructions must reproduce the counts *exactly* -- ``table2_rows``
returns both the expected and constructed values so the benchmark and the
test suite can assert the match.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments.report import format_table

#: Table 1 as (opcode bits, mnemonic, action) rows, kept literal so that
#: rendering it loads no ALU code; the tests pin it to ``Opcode``.
_TABLE1 = (
    ("000", "AND", "Operand1 AND Operand2"),
    ("001", "OR", "Operand1 OR Operand2"),
    ("010", "XOR", "Operand1 XOR Operand2"),
    ("111", "ADD", "Operand1 + Operand2"),
)


def table1_rows() -> List[Tuple[str, str, str]]:
    """(opcode bits, mnemonic, action) rows of the ISA table."""
    return list(_TABLE1)


def table1_text() -> str:
    """Render Table 1 (ALU Instruction Set)."""
    return "ALU Instruction Set\n" + format_table(
        ("Opcode", "Instruction", "Action"), table1_rows()
    )


def table2_rows() -> List[Tuple[str, int, int, str]]:
    """(name, paper sites, constructed sites, description) per variant."""
    from repro.alu.variants import TABLE2_SITE_COUNTS, build_alu, variant_spec

    rows = []
    for name, expected in TABLE2_SITE_COUNTS.items():
        spec = variant_spec(name)
        constructed = build_alu(name).site_count
        rows.append((name, expected, constructed, spec.description))
    return rows

def table2_text() -> str:
    """Render Table 2 with the constructed counts alongside the paper's."""
    rows = [
        (name, paper, built, "OK" if paper == built else "MISMATCH")
        for name, paper, built, _desc in table2_rows()
    ]
    return "ALU naming conventions and potential fault injection sites\n" + format_table(
        ("ALU", "paper sites", "constructed sites", "status"), rows
    )


def isa_spot_checks() -> List[Tuple[str, int, int, int]]:
    """Worked ISA examples: (mnemonic, a, b, result) demonstration rows."""
    from repro.alu.base import Opcode
    from repro.alu.reference import reference_compute

    cases = [
        (Opcode.AND, 0b11001100, 0b10101010),
        (Opcode.OR, 0b11001100, 0b10101010),
        (Opcode.XOR, 0b11001100, 0b10101010),
        (Opcode.ADD, 200, 100),
    ]
    return [
        (op.name, a, b, reference_compute(int(op), a, b).value)
        for op, a, b in cases
    ]
