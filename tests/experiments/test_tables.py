"""Tests regenerating Tables 1 and 2."""

from repro.experiments.tables import (
    isa_spot_checks,
    table1_rows,
    table1_text,
    table2_rows,
    table2_text,
)


class TestTable1:
    def test_four_instructions(self):
        rows = table1_rows()
        assert len(rows) == 4

    def test_paper_encodings(self):
        rows = {mnemonic: bits for bits, mnemonic, _ in table1_rows()}
        assert rows == {"AND": "000", "OR": "001", "XOR": "010", "ADD": "111"}

    def test_rows_match_the_opcode_enum(self):
        from repro.alu.base import Opcode

        assert [(bits, name) for bits, name, _ in table1_rows()] == [
            (format(int(op), "03b"), op.name) for op in Opcode
        ]

    def test_render_contains_actions(self):
        text = table1_text()
        assert "Operand1 AND Operand2" in text
        assert "Operand1 + Operand2" in text

    def test_spot_checks_consistent(self):
        for name, a, b, result in isa_spot_checks():
            if name == "AND":
                assert result == a & b
            elif name == "ADD":
                assert result == (a + b) & 0xFF


class TestTable2:
    def test_all_twelve_match_paper(self):
        rows = table2_rows()
        assert len(rows) == 12
        for name, paper, constructed, _desc in rows:
            assert paper == constructed, name

    def test_render_shows_ok(self):
        text = table2_text()
        assert "MISMATCH" not in text
        assert text.count("OK") == 12

    def test_descriptions_meaningful(self):
        descriptions = {name: desc for name, _, _, desc in table2_rows()}
        assert "triplicated" in descriptions["aluss"]
        assert "space redundancy" in descriptions["aluss"]
        assert "CMOS" in descriptions["aluncmos"]
