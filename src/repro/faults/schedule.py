"""Array-held temporal fault streams for a whole region of cells.

The event-driven grid must know *when* a quiescent cell's fault stream
will next do something without ticking the cell every cycle.  A
per-cell stream (:class:`repro.faults.temporal.CellFaultStream`) draws
exactly one uniform per alive, non-burst cycle from a ``PCG64`` generator seeded by
``SeedSequence([seed, salt, row, col])``; the sequence of outcomes is a
pure function of that uniform stream plus the burst/death state.

:class:`StreamBank` holds every cell's stream of a ``rows x cols``
region as NumPy arrays -- the raw ``PCG64`` registers, the burst
countdown and the stream-death flag -- instead of one generator object
per cell:

* :func:`seed_streams` seeds all cells at once: a vectorised
  ``SeedSequence`` (hashmix/mix over uint32 columns, then
  ``generate_state(4, uint64)``) followed by ``PCG64``'s ``srandom``
  in two-limb 128-bit arithmetic.  The registers equal
  ``PCG64(SeedSequence([seed, salt, row, col])).state`` cell for cell.
* :meth:`StreamBank.advance` is the bulk twin of ``CellFaultStream``:
  it consumes up to ``max_cycles`` alive cycles per cell, stopping at
  (and consuming) the first non-quiet event, for many cells in one
  call.  The draw scan runs in the compiled tier's native tape entry
  when the kernel provider carries one, else in :func:`scan_numpy`;
  both leave each cell's registers after exactly the draws consumed.

Aliveness is the *caller's* contract, exactly as for a per-cell stream:
the simulator never samples a dead cell, so the scheduler must only
advance a stream over cycles the cell was alive.  Stream-level death (a permanent
onset) is tracked here and consumes no further draws.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.obs import get_observer

from .temporal import (
    _TEMPORAL_SALT,
    CellFaultEvent,
    FaultKind,
    TemporalFaultProcess,
)

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit limbs.
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_U32 = np.uint64(0xFFFFFFFF)
_U64_MAX = (1 << 64) - 1


def _uint32_words(value: int) -> List[int]:
    """``SeedSequence``'s little-endian uint32 split of one entropy int."""
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = []
    while True:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        if not value:
            return words


class _Hash:
    """``SeedSequence``'s running hash constant, shared by every cell
    (it evolves with the step count, never with the data)."""

    def __init__(self, init: int, mult: int) -> None:
        self._const = init
        self._mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self._const)
        self._const = (self._const * self._mult) & 0xFFFFFFFF
        value = value * np.uint32(self._const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mul_wide(a: np.ndarray, b: np.uint64) -> Tuple[np.ndarray, np.ndarray]:
    """Full 128-bit product of uint64 ``a`` and ``b`` as (high, low)."""
    a0, a1 = a & _U32, a >> np.uint64(32)
    b0, b1 = b & _U32, b >> np.uint64(32)
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> np.uint64(32)) + (p01 & _U32) + (p10 & _U32)
    high = p11 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
    return high + (mid >> np.uint64(32)), a * b


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One ``state = state * MULT + inc`` step on (high, low) limbs."""
    carry_hi, lo_prod = _mul_wide(lo, _PCG_MULT[1])
    hi = carry_hi + lo * _PCG_MULT[0] + hi * _PCG_MULT[1]
    lo = lo_prod + inc_lo
    return hi + inc_hi + (lo < inc_lo).astype(np.uint64), lo


def seed_streams(seed: int, rows: int, cols: int) -> np.ndarray:
    """``PCG64`` registers for every cell's temporal fault stream.

    Row ``r * cols + c`` holds (state high, state low, increment high,
    increment low) of ``PCG64(SeedSequence([seed, salt, r, c]))`` as
    ``uint64`` -- the generator ``TemporalFaultProcess.attach((r, c),
    seed)`` draws from.
    """
    n = rows * cols
    row, col = np.divmod(np.arange(n, dtype=np.uint32), np.uint32(cols))
    constants = _uint32_words(seed) + [_TEMPORAL_SALT]
    entropy = [np.full(n, w, dtype=np.uint32) for w in constants] + [row, col]
    # SeedSequence.mix_entropy over a four-word pool.
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [
        hashmix(entropy[i] if i < len(entropy) else np.zeros(n, np.uint32))
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, np.uint64): eight uint32 draws
    # cycling the pool, paired little-endian into four uint64 words.
    draw = _Hash(_INIT_B, _MULT_B)
    halves = [draw(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    s = [halves[2 * k] | (halves[2 * k + 1] << np.uint64(32)) for k in range(4)]
    # PCG64 srandom(initstate=(s0, s1), initseq=(s2, s3)):
    # inc = initseq << 1 | 1; state = ((0 * M + inc) + initstate) * M + inc.
    inc_hi = (s[2] << np.uint64(1)) | (s[3] >> np.uint64(63))
    inc_lo = (s[3] << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + s[1]
    hi = inc_hi + s[0] + (lo < inc_lo).astype(np.uint64)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    return np.ascontiguousarray(np.stack([hi, lo, inc_hi, inc_lo], axis=1))


def scan_numpy(
    pcg: np.ndarray, cells: np.ndarray, limits: np.ndarray, rate: float
) -> np.ndarray:
    """Each listed cell's first draw below ``rate``, in NumPy.

    For cell ``cells[j]`` draws up to ``limits[j]`` uniforms from the
    ``PCG64`` registers in row ``cells[j]`` of ``pcg`` exactly as
    ``Generator.random`` does, and returns the offset of the first one
    below ``rate`` (``-1`` when none is).  The registers are written
    back after exactly the draws consumed: the hit and everything
    before it, or all ``limits[j]``.  The reference for the native tape
    entry, and the path whenever that entry is unavailable.
    """
    hits = np.full(len(cells), -1, dtype=np.int64)
    bit_generator = np.random.PCG64()
    generator = np.random.Generator(bit_generator)
    template = bit_generator.state
    for j, (cell, limit) in enumerate(zip(cells.tolist(), limits.tolist())):
        hi, lo, inc_hi, inc_lo = pcg[cell].tolist()
        template["state"] = {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo}
        bit_generator.state = template
        below = np.flatnonzero(generator.random(limit) < rate)
        if below.size:
            hits[j] = below[0]
            bit_generator.state = template
            bit_generator.advance(int(below[0]) + 1)
        state = bit_generator.state["state"]["state"]
        pcg[cell, 0] = state >> 64
        pcg[cell, 1] = state & _U64_MAX
    return hits


def _scan(pcg, cells, limits, rate) -> np.ndarray:
    """:func:`scan_numpy` through the provider's native tape entry when
    it has one; counts streams scanned on ``kernel.tape.*``."""
    # Deferred: repro.kernels imports the ALU stack, which imports faults.
    from repro.kernels.providers import get_provider

    provider = get_provider()
    scan = None if provider is None else provider.tape_fn
    metrics = get_observer().metrics
    if scan is not None:
        metrics.counter("kernel.tape.native").inc(len(cells))
        return scan(pcg, cells, limits, rate)
    metrics.counter("kernel.tape.numpy").inc(len(cells))
    return scan_numpy(pcg, cells, limits, rate)


class StreamBank:
    """Every cell's :class:`TemporalFaultProcess` stream for one region.

    Cell ``(r, c)`` is index ``r * cols + c``.  Its stream replays
    ``process.attach((r, c), seed)`` draw for draw.
    """

    def __init__(
        self, process: TemporalFaultProcess, seed: int, rows: int, cols: int
    ) -> None:
        self._process = process
        self._pcg = seed_streams(seed, rows, cols)
        self._burst = np.zeros(rows * cols, dtype=np.int64)
        #: True once a cell's permanent onset fired (no further draws).
        self.dead = np.zeros(rows * cols, dtype=bool)
        if process.kind is FaultKind.PERMANENT:
            self.event = CellFaultEvent(kill=True)
        else:
            self.event = CellFaultEvent(errors=process.errors_per_cycle)

    @property
    def registers(self) -> np.ndarray:
        """The live ``(n, 4)`` ``PCG64`` registers (see :func:`seed_streams`)."""
        return self._pcg

    def advance(
        self, cells: np.ndarray, max_cycles: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Consume up to ``max_cycles[j]`` alive cycles of each cell.

        Returns ``(quiet, fired)``: cell ``cells[j]`` was quiet for
        ``quiet[j]`` cycles and then -- if ``fired[j]`` -- produced
        :attr:`event` on the following cycle (also consumed).  Otherwise
        all ``max_cycles[j]`` cycles were quiet.  Equivalent, cell by
        cell, to calling ``CellFaultStream.sample`` up to ``max_cycles``
        times and stopping at the first non-quiet result.  ``cells``
        must not repeat a cell.
        """
        cells = np.asarray(cells, dtype=np.int64)
        quiet = np.array(
            np.broadcast_to(max_cycles, cells.shape), dtype=np.int64
        )
        if np.any(quiet < 0):
            raise ValueError("max_cycles must be >= 0")
        fired = np.zeros(cells.shape, dtype=bool)
        live = (quiet > 0) & ~self.dead[cells]
        bursting = live & (self._burst[cells] > 0)
        # A burst cycle is an event that draws nothing.
        self._burst[cells[bursting]] -= 1
        quiet[bursting] = 0
        fired[bursting] = True
        todo = np.flatnonzero(live & ~bursting)
        if todo.size:
            hits = _scan(self._pcg, cells[todo], quiet[todo], self._process.rate)
            onset = todo[hits >= 0]
            quiet[onset] = hits[hits >= 0]
            fired[onset] = True
            if self._process.kind is FaultKind.PERMANENT:
                self.dead[cells[onset]] = True
            elif self._process.kind is FaultKind.INTERMITTENT:
                self._burst[cells[onset]] = self._process.burst_length - 1
        return quiet, fired
