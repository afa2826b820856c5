"""Processor-cell read/writable memory.

"In this initial investigation, the memory unit of a processor cell
contains 32 words" (Section 3.3).  The memory is active in all three modes
and is itself a fault-injection surface: every stored bit is a site, so
single-event upsets can corrupt any field -- which is precisely why the
critical fields are triplicated at the word level.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from repro.cell.memword import MEMORY_WORD_BITS, MemoryWord
from repro.coding.bits import bit_length_mask, popcount
from repro.faults.sites import Segment, SiteSpace

#: Paper Section 3.3: 32 words per cell (size arbitrary, may grow later).
CELL_MEMORY_WORDS = 32


@lru_cache(maxsize=None)
def memory_layout(n_words: int) -> Tuple[SiteSpace, Tuple[Segment, ...]]:
    """The frozen site layout shared by every ``n_words``-word memory.

    One segment of ``MEMORY_WORD_BITS`` sites per word, word 0 first.
    The layout depends only on the size, so every cell of a grid holds
    the same object (a flyweight) and keeps only its stored words.
    """
    space = SiteSpace("cell_memory")
    segments = tuple(
        space.add(f"word{i}", MEMORY_WORD_BITS) for i in range(n_words)
    )
    return space.freeze(), segments


class CellMemory:
    """Word-addressed cell memory with bit-level fault overlay."""

    def __init__(self, n_words: int = CELL_MEMORY_WORDS) -> None:
        if n_words <= 0:
            raise ValueError(f"n_words must be positive, got {n_words}")
        self._n_words = n_words
        self._words: List[int] = [0] * n_words
        self._space, self._segments = memory_layout(n_words)
        #: Optional observer called (with no arguments) after any write.
        #: The event-driven grid hooks this to dirty-flag the owning
        #: cell's occupancy/pending counters; None costs nothing.
        self.on_mutate = None

    @property
    def n_words(self) -> int:
        return self._n_words

    @property
    def site_space(self) -> SiteSpace:
        """One segment of 65 sites per word (shared and frozen)."""
        return self._space

    @property
    def site_count(self) -> int:
        return self._space.total_sites

    # ------------------------------------------------------------ raw access

    def read_raw(self, index: int) -> int:
        """Read the stored 65-bit image of word ``index``."""
        self._check_index(index)
        return self._words[index]

    def write_raw(self, index: int, raw: int) -> None:
        """Overwrite the stored image of word ``index``."""
        self._check_index(index)
        if raw < 0 or raw >> MEMORY_WORD_BITS:
            raise ValueError(f"raw word {raw:#x} exceeds {MEMORY_WORD_BITS} bits")
        self._words[index] = raw
        if self.on_mutate is not None:
            self.on_mutate()

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._n_words:
            raise IndexError(f"word index {index} out of range 0..{self._n_words - 1}")

    # --------------------------------------------------------- typed access

    def read(self, index: int) -> MemoryWord:
        """Decode word ``index``, majority-voting the protected fields."""
        return MemoryWord.unpack(self.read_raw(index))

    def write(self, index: int, word: MemoryWord) -> None:
        """Encode and store ``word`` at ``index``."""
        self.write_raw(index, word.pack())

    def clear(self) -> None:
        """Zero the whole memory (all words invalid)."""
        self._words = [0] * self._n_words
        if self.on_mutate is not None:
            self.on_mutate()

    def erase(self, index: int) -> None:
        """Zero a single word (data_valid becomes false)."""
        self._check_index(index)
        self._words[index] = 0
        if self.on_mutate is not None:
            self.on_mutate()

    # --------------------------------------------------------- bulk queries
    #
    # The queries read only the voted flags, straight from the raw word
    # (:meth:`MemoryWord.flags`); no word is decoded to answer them.  A
    # raw-0 word is invalid by construction (all three ``data_valid``
    # copies are zero), so they skip it without even that, as ``scrub``
    # does.

    def free_slot(self) -> Optional[int]:
        """Index of the first word with ``data_valid`` unset, or ``None``."""
        for i, raw in enumerate(self._words):
            if not raw or not MemoryWord.flags(raw)[0]:
                return i
        return None

    def pending_words(self) -> Iterator[int]:
        """Indices of valid words still awaiting computation."""
        for i, raw in enumerate(self._words):
            if raw and MemoryWord.flags(raw) == (True, True):
                yield i

    def completed_words(self) -> Iterator[int]:
        """Indices of valid words whose computation finished."""
        for i, raw in enumerate(self._words):
            if raw and MemoryWord.flags(raw) == (True, False):
                yield i

    def occupancy(self) -> int:
        """Number of valid words."""
        return sum(
            1 for raw in self._words if raw and MemoryWord.flags(raw)[0]
        )

    # ------------------------------------------------------------ scrubbing

    def scrub(self) -> int:
        """Rewrite every valid word in canonical triplicated form.

        Majority-decodes the triplicated flags and the three result
        copies, then re-packs the word, restoring agreement among the
        copies.  Scrubbing bounds the *accumulation* of single-event
        upsets: a triplicated field only fails when two copies flip
        within one scrub interval, rather than over the whole job.
        Non-triplicated fields (operands, instruction ID, opcode) cannot
        be repaired and are rewritten as-is.

        Returns the number of stored bits corrected.
        """
        corrected = 0
        for index in range(self._n_words):
            raw = self._words[index]
            if raw == 0:
                continue
            word = MemoryWord.unpack(raw)
            if not word.data_valid:
                # Majority says invalid: clear stragglers so a half-set
                # flag cannot drift into validity under later upsets.
                corrected += popcount(raw)
                self._words[index] = 0
                continue
            canonical = word.pack()
            if canonical != raw:
                corrected += popcount(canonical ^ raw)
                self._words[index] = canonical
        if corrected and self.on_mutate is not None:
            self.on_mutate()
        return corrected

    # -------------------------------------------------------------- faults

    def apply_faults(self, fault_mask: int) -> None:
        """XOR a fault mask over the entire memory's stored bits.

        The mask spans ``site_count`` bits, word 0's 65 bits first.  Unlike
        the per-computation ALU masks, memory upsets *persist* until the
        word is rewritten -- they model single-event upsets in storage.
        """
        if fault_mask < 0 or fault_mask >> self.site_count:
            raise ValueError(
                f"fault mask does not fit the {self.site_count}-site memory"
            )
        if fault_mask == 0:
            return
        word_mask = bit_length_mask(MEMORY_WORD_BITS)
        for i, segment in enumerate(self._segments):
            local = segment.extract(fault_mask)
            if local:
                self._words[i] = (self._words[i] ^ local) & word_mask
        if self.on_mutate is not None:
            self.on_mutate()

    def __len__(self) -> int:
        return self._n_words

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CellMemory(words={self._n_words}, occupied={self.occupancy()})"
