"""Unit tests for the processor-cell memory."""

import pytest

from repro.cell.memory import CELL_MEMORY_WORDS, CellMemory
from repro.cell.memword import (
    DATA_VALID_OFFSET,
    MEMORY_WORD_BITS,
    TO_BE_COMPUTED_OFFSET,
    MemoryWord,
)


def word(iid=1, tbc=True):
    return MemoryWord(
        instruction_id=iid,
        opcode=0b010,
        operand1=0x10,
        operand2=0xFF,
        data_valid=True,
        to_be_computed=tbc,
    )


class TestGeometry:
    def test_paper_default(self):
        memory = CellMemory()
        assert memory.n_words == CELL_MEMORY_WORDS == 32
        assert memory.site_count == 32 * MEMORY_WORD_BITS

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CellMemory(0)


class TestReadWrite:
    def test_roundtrip(self):
        memory = CellMemory(4)
        memory.write(2, word(7))
        assert memory.read(2).instruction_id == 7

    def test_index_bounds(self):
        memory = CellMemory(4)
        with pytest.raises(IndexError):
            memory.read(4)
        with pytest.raises(IndexError):
            memory.write_raw(-1, 0)

    def test_raw_width_enforced(self):
        memory = CellMemory(1)
        with pytest.raises(ValueError):
            memory.write_raw(0, 1 << MEMORY_WORD_BITS)

    def test_erase_and_clear(self):
        memory = CellMemory(4)
        memory.write(0, word(1))
        memory.write(1, word(2))
        memory.erase(0)
        assert not memory.read(0).data_valid
        memory.clear()
        assert memory.occupancy() == 0


class TestQueries:
    def test_free_slot_order(self):
        memory = CellMemory(4)
        assert memory.free_slot() == 0
        memory.write(0, word(1))
        assert memory.free_slot() == 1

    def test_free_slot_none_when_full(self):
        memory = CellMemory(2)
        memory.write(0, word(1))
        memory.write(1, word(2))
        assert memory.free_slot() is None

    def test_pending_and_completed(self):
        memory = CellMemory(4)
        memory.write(0, word(1, tbc=True))
        memory.write(1, word(2, tbc=False))
        assert list(memory.pending_words()) == [0]
        assert list(memory.completed_words()) == [1]

    def test_occupancy(self):
        memory = CellMemory(8)
        for i in range(3):
            memory.write(i, word(i))
        assert memory.occupancy() == 3


class TestFaultOverlay:
    def test_faults_persist(self):
        memory = CellMemory(2)
        memory.write(0, word(1))
        before = memory.read_raw(0)
        memory.apply_faults(1 << 0)  # flip instruction-ID bit 0 of word 0
        assert memory.read_raw(0) == before ^ 1
        # Persist across reads (unlike transient ALU masks).
        assert memory.read_raw(0) == before ^ 1

    def test_fault_targets_correct_word(self):
        memory = CellMemory(3)
        for i in range(3):
            memory.write(i, word(i + 1))
        raw1_before = memory.read_raw(1)
        memory.apply_faults(1 << MEMORY_WORD_BITS)  # first bit of word 1
        assert memory.read_raw(0) == word(1).pack()
        assert memory.read_raw(1) == raw1_before ^ 1
        assert memory.read_raw(2) == word(3).pack()

    def test_triplicated_flags_survive_single_upset(self):
        from repro.cell.memword import TO_BE_COMPUTED_OFFSET

        memory = CellMemory(1)
        memory.write(0, word(9))
        memory.apply_faults(1 << TO_BE_COMPUTED_OFFSET)
        assert memory.read(0).to_be_computed  # majority still true

    def test_oversized_mask_rejected(self):
        memory = CellMemory(1)
        with pytest.raises(ValueError):
            memory.apply_faults(1 << memory.site_count)

    def test_zero_mask_noop(self):
        memory = CellMemory(2)
        memory.write(0, word(1))
        memory.apply_faults(0)
        assert memory.read_raw(0) == word(1).pack()


class TestBulkQueriesMatchFullDecode:
    """The bulk queries skip raw-0 words without decoding them; over any
    raw image they must answer exactly as decoding every word would."""

    @staticmethod
    def _random_image(rnd, n_words):
        flags = [DATA_VALID_OFFSET + c for c in range(3)] + [
            TO_BE_COMPUTED_OFFSET + c for c in range(3)
        ]
        image = []
        for _ in range(n_words):
            if rnd.random() < 0.2:
                raw = rnd.getrandbits(MEMORY_WORD_BITS)
            else:
                raw = rnd.choice([
                    0, word(iid=rnd.randrange(256), tbc=rnd.random() < 0.5).pack()
                ])
                # Single and double upsets on the triplicated flags.
                for site in rnd.sample(flags, rnd.randrange(3)):
                    raw ^= 1 << site
            image.append(raw)
        return image

    def test_random_images(self):
        import random

        rnd = random.Random(2004)
        for _ in range(300):
            n_words = rnd.randrange(1, 9)
            memory = CellMemory(n_words)
            for index, raw in enumerate(self._random_image(rnd, n_words)):
                memory.write_raw(index, raw)
            decoded = [
                MemoryWord.unpack(memory.read_raw(i)) for i in range(n_words)
            ]
            valid = [i for i, w in enumerate(decoded) if w.data_valid]
            assert list(memory.pending_words()) == [
                i for i in valid if decoded[i].to_be_computed
            ]
            assert list(memory.completed_words()) == [
                i for i in valid if not decoded[i].to_be_computed
            ]
            assert memory.occupancy() == len(valid)
            free = [i for i, w in enumerate(decoded) if not w.data_valid]
            assert memory.free_slot() == (free[0] if free else None)

    def test_zero_word_decodes_invalid(self):
        """The skip's premise: a raw-0 word is invalid by construction."""
        assert not MemoryWord.unpack(0).data_valid
