"""Processor-cell memory word codec (paper Figure 4).

A memory word stores one instruction and its computed result:

========================= ====== =====================================
field                     bits   notes
========================= ====== =====================================
instruction_id            16     unique; doubles as the pixel ID
opcode                    3      Table 1 opcode
operand1                  8
operand2                  8
result copies             3 x 8  written during compute mode
data_valid flags          3 x 1  triplicated critical field
to_be_computed flags      3 x 1  triplicated critical field
========================= ====== =====================================

Total: 65 bits.  "Critical fields within the memory word are stored in
triplicate.  Whenever these critical fields are accessed, the majority
value of these triplicated fields is computed and that majority value is
used as the value of the field" (Section 2.2).  The result is likewise
stored as three copies whose majority vote forms the shift-out value
(Section 3.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.coding.bits import bit_length_mask

#: Field widths, LSB first.
INSTRUCTION_ID_BITS = 16
OPCODE_BITS = 3
OPERAND_BITS = 8
RESULT_COPIES = 3
FLAG_COPIES = 3

# Bit offsets within the packed word, LSB first.
_IID_OFF = 0
_OPCODE_OFF = _IID_OFF + INSTRUCTION_ID_BITS
_OP1_OFF = _OPCODE_OFF + OPCODE_BITS
_OP2_OFF = _OP1_OFF + OPERAND_BITS
_RESULT_OFF = _OP2_OFF + OPERAND_BITS
_DV_OFF = _RESULT_OFF + RESULT_COPIES * OPERAND_BITS
_TBC_OFF = _DV_OFF + FLAG_COPIES

#: Total packed width of one memory word.
MEMORY_WORD_BITS = _TBC_OFF + FLAG_COPIES

#: Public offsets of the triplicated flag fields (used by the LUT-based
#: control-logic extension, which votes them through fault-prone tables).
DATA_VALID_OFFSET = _DV_OFF
TO_BE_COMPUTED_OFFSET = _TBC_OFF


def majority_bit(bits: Tuple[int, int, int]) -> int:
    """Majority of three flag copies -- the triplicated-field read rule."""
    return 1 if sum(bits) >= 2 else 0


def _voted_flags(pattern: int) -> Tuple[bool, bool]:
    """``(data_valid, to_be_computed)`` of one 6-bit flag pattern."""
    dv = tuple((pattern >> c) & 1 for c in range(FLAG_COPIES))
    tbc = tuple((pattern >> (FLAG_COPIES + c)) & 1 for c in range(FLAG_COPIES))
    return bool(majority_bit(dv)), bool(majority_bit(tbc))


#: Voted flags of every pattern of the word's top six bits (the three
#: ``data_valid`` copies, then the three ``to_be_computed`` copies).
_FLAG_TABLE = tuple(_voted_flags(p) for p in range(1 << (2 * FLAG_COPIES)))


@dataclass(frozen=True)
class MemoryWord:
    """Decoded view of one processor-cell memory word."""

    instruction_id: int
    opcode: int
    operand1: int
    operand2: int
    result: int = 0
    data_valid: bool = False
    to_be_computed: bool = False

    def __post_init__(self) -> None:
        checks = (
            ("instruction_id", self.instruction_id, INSTRUCTION_ID_BITS),
            ("opcode", self.opcode, OPCODE_BITS),
            ("operand1", self.operand1, OPERAND_BITS),
            ("operand2", self.operand2, OPERAND_BITS),
            ("result", self.result, OPERAND_BITS),
        )
        for name, value, bits in checks:
            if value < 0 or value >> bits:
                raise ValueError(f"{name}={value} does not fit in {bits} bits")

    # ----------------------------------------------------------------- pack

    def pack(self) -> int:
        """Encode to the 65-bit stored layout, triplicating the critical
        fields and writing three identical result copies."""
        raw = self.instruction_id << _IID_OFF
        raw |= self.opcode << _OPCODE_OFF
        raw |= self.operand1 << _OP1_OFF
        raw |= self.operand2 << _OP2_OFF
        for c in range(RESULT_COPIES):
            raw |= self.result << (_RESULT_OFF + c * OPERAND_BITS)
        dv = 1 if self.data_valid else 0
        tbc = 1 if self.to_be_computed else 0
        for c in range(FLAG_COPIES):
            raw |= dv << (_DV_OFF + c)
            raw |= tbc << (_TBC_OFF + c)
        return raw

    @classmethod
    def unpack(cls, raw: int) -> "MemoryWord":
        """Decode a (possibly corrupted) stored word.

        Triplicated flags and the result copies are majority-voted;
        non-triplicated fields are taken verbatim -- single-event upsets
        there are exactly the exposure the paper accepts outside the
        critical fields.
        """
        if raw < 0 or raw >> MEMORY_WORD_BITS:
            raise ValueError(
                f"raw word {raw:#x} does not fit in {MEMORY_WORD_BITS} bits"
            )
        iid = (raw >> _IID_OFF) & bit_length_mask(INSTRUCTION_ID_BITS)
        opcode = (raw >> _OPCODE_OFF) & bit_length_mask(OPCODE_BITS)
        op1 = (raw >> _OP1_OFF) & bit_length_mask(OPERAND_BITS)
        op2 = (raw >> _OP2_OFF) & bit_length_mask(OPERAND_BITS)
        result = cls.voted_result(raw)
        dv, tbc = cls.flags(raw)
        return cls(
            instruction_id=iid,
            opcode=opcode,
            operand1=op1,
            operand2=op2,
            result=result,
            data_valid=dv,
            to_be_computed=tbc,
        )

    # --------------------------------------------------------- raw helpers

    @staticmethod
    def flags(raw: int) -> Tuple[bool, bool]:
        """Majority-voted ``(data_valid, to_be_computed)`` of a raw word.

        The two triplicated flags are the word's top six bits, so one
        table lookup votes both without decoding the rest of the word.
        """
        return _FLAG_TABLE[(raw >> _DV_OFF) & 0x3F]

    @staticmethod
    def result_copies(raw: int) -> Tuple[int, int, int]:
        """Extract the three stored result copies from a raw word."""
        mask = bit_length_mask(OPERAND_BITS)
        return tuple(
            (raw >> (_RESULT_OFF + c * OPERAND_BITS)) & mask for c in range(3)
        )

    @staticmethod
    def voted_result(raw: int) -> int:
        """Bitwise majority of the three stored result copies.

        This is the value shift-out mode packs into the result packet
        (Section 3.2.3).
        """
        a, b, c = MemoryWord.result_copies(raw)
        return (a & b) | (b & c) | (a & c)

    @staticmethod
    def store_results(raw: int, results: Tuple[int, int, int]) -> int:
        """Write three (possibly differing) result copies into a raw word.

        Compute mode generates three copies of the result -- concurrently
        on three ALUs or serially on one -- and stores all three.
        """
        mask = bit_length_mask(OPERAND_BITS)
        for c, value in enumerate(results):
            if value < 0 or value >> OPERAND_BITS:
                raise ValueError(f"result copy {c} = {value} out of 8-bit range")
            shift = _RESULT_OFF + c * OPERAND_BITS
            raw &= ~(mask << shift)
            raw |= value << shift
        return raw

    @staticmethod
    def clear_to_be_computed(raw: int) -> int:
        """Clear all three ``to_be_computed`` flag copies in a raw word."""
        for c in range(FLAG_COPIES):
            raw &= ~(1 << (_TBC_OFF + c))
        return raw

    @staticmethod
    def set_to_be_computed(raw: int) -> int:
        """Set all three ``to_be_computed`` flag copies in a raw word."""
        for c in range(FLAG_COPIES):
            raw |= 1 << (_TBC_OFF + c)
        return raw

    def completed(self, result: int) -> "MemoryWord":
        """Return a copy holding ``result`` with ``to_be_computed`` cleared."""
        return replace(self, result=result, to_be_computed=False)
