"""Fault-mask generation policies.

The paper "force[s] a given fraction of the fault injection points to flip
their states" per computation, with the flipped-to-total ratio held constant
across ALU implementations.  :class:`ExactFractionMask` implements that
semantics (with stochastic rounding of the fractional site, so very small
designs at very small percentages still see the right *expected* count);
:class:`BernoulliMask` flips each site independently, which is analytically
convenient and used by the cross-validation property tests.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional, Tuple

import numpy as np

from repro.faults.packing import int_to_words, pack_flags, words_for_sites
from repro.obs import get_observer

#: Half-width of the native draw's selection band, in binomial standard
#: deviations of the flip count (see ExactFractionMask.native_batch).
_BAND_SIGMAS = 6.0


def _pack_sites(flags: np.ndarray) -> int:
    """Pack a uint8 0/1 site vector into a little-endian mask integer."""
    if flags.size == 0:
        return 0
    packed = np.packbits(flags, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


class MaskPolicy(ABC):
    """Strategy for drawing one fault mask over ``n_sites`` sites."""

    @abstractmethod
    def generate(self, n_sites: int, rng: np.random.Generator) -> int:
        """Draw a fresh fault mask (integer, one bit per site)."""

    @abstractmethod
    def expected_faults(self, n_sites: int) -> float:
        """Expected number of flipped sites per draw."""

    def generate_batch(
        self, n_sites: int, n_draws: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_draws`` masks as a packed ``(n_draws, n_words)`` array.

        The determinism contract of the batched campaign engine: this must
        consume ``rng`` exactly as ``n_draws`` successive :meth:`generate`
        calls would, so that scalar and batched campaigns see identical
        mask streams for the same seed.  The base implementation guarantees
        that by delegating to :meth:`generate`; subclasses may override
        with a vectorized draw only when it is stream-identical.
        """
        if n_draws < 0:
            raise ValueError(f"n_draws must be non-negative, got {n_draws}")
        words = np.zeros((n_draws, words_for_sites(n_sites)), dtype="<u8")
        for d in range(n_draws):
            words[d] = int_to_words(self.generate(n_sites, rng), n_sites)
        return words


class ExactFractionMask(MaskPolicy):
    """Flip ``round(fraction * n_sites)`` distinct sites, chosen uniformly.

    The fractional remainder is resolved stochastically: a fraction of
    0.5 % over 192 sites flips one site with probability 0.96, zero sites
    otherwise, keeping the expected ratio exact.  This is the paper's
    default injection semantics.

    The without-replacement sample is drawn by *order statistics*: one
    uniform per site (plus one for the stochastic rounding), flipping the
    sites holding the ``count`` smallest values.  The ranks of i.i.d.
    uniforms are a uniform random permutation, so those positions are an
    exact uniform ``count``-subset -- and each draw consumes a fixed,
    rectangular block of the stream, which is what lets
    :meth:`generate_batch` pull a whole trial's masks in a single RNG
    call with bit-identical results to per-draw :meth:`generate` calls.
    """

    def __init__(self, fraction: float) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        self._fraction = fraction

    @property
    def fraction(self) -> float:
        """Fraction of sites flipped per computation."""
        return self._fraction

    def expected_faults(self, n_sites: int) -> float:
        return self._fraction * n_sites

    def _split_count(self, n_sites: int) -> Tuple[int, float]:
        """The guaranteed flip count and the stochastic remainder."""
        exact = self._fraction * n_sites
        base = int(exact)
        return base, exact - base

    def generate(self, n_sites: int, rng: np.random.Generator) -> int:
        if n_sites < 0:
            raise ValueError(f"n_sites must be non-negative, got {n_sites}")
        if n_sites == 0 or self._fraction == 0.0:
            return 0
        base, remainder = self._split_count(n_sites)
        # One uniform per site, plus a trailing rounding uniform when the
        # count has a fractional part -- the same consumption layout as
        # one row of generate_batch's block draw.
        vec = rng.random(n_sites + 1 if remainder > 0.0 else n_sites)
        count = base
        if remainder > 0.0 and vec[n_sites] < remainder:
            count += 1
        if count == 0:
            return 0
        flags = np.zeros(n_sites, dtype=np.uint8)
        if count >= n_sites:
            flags[:] = 1
        else:
            flags[np.argpartition(vec[:n_sites], count - 1)[:count]] = 1
        return _pack_sites(flags)

    def generate_batch(
        self, n_sites: int, n_draws: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Whole-trial draw from one rectangular block of uniforms.

        ``Generator.random`` fills row-major, so the ``(n_draws, cols)``
        block holds exactly the uniforms ``n_draws`` successive
        :meth:`generate` calls would consume -- stream- and
        result-identical to the scalar path (asserted by the equivalence
        tests).  When the compiled tier's provider carries the native
        mask draw and ``rng`` is a ``PCG64`` stream (every campaign
        stream is), :meth:`native_batch` draws, selects and packs in C;
        otherwise, or when the kernel declines, :meth:`numpy_batch` does.
        The ``kernel.mask.native`` / ``kernel.mask.numpy`` counters count
        the masks each path drew; ``kernel.mask.declined`` counts the
        masks the kernel declined and left to :meth:`numpy_batch`.
        """
        if n_sites < 0:
            raise ValueError(f"n_sites must be non-negative, got {n_sites}")
        if n_draws < 0:
            raise ValueError(f"n_draws must be non-negative, got {n_draws}")
        if n_sites == 0 or self._fraction == 0.0 or n_draws == 0:
            return np.zeros((n_draws, words_for_sites(n_sites)), dtype="<u8")
        # Deferred: repro.kernels imports the ALU stack, which imports this.
        from repro.kernels.providers import get_provider

        metrics = get_observer().metrics
        provider = get_provider()
        draw = None if provider is None else provider.mask_fn
        if draw is not None and type(rng.bit_generator) is np.random.PCG64:
            words = self.native_batch(draw, n_sites, n_draws, rng)
            if words is not None:
                metrics.counter("kernel.mask.native").inc(n_draws)
                return words
            metrics.counter("kernel.mask.declined").inc(n_draws)
        metrics.counter("kernel.mask.numpy").inc(n_draws)
        return self.numpy_batch(n_sites, n_draws, rng)

    def native_batch(
        self,
        draw: Callable,
        n_sites: int,
        n_draws: int,
        rng: np.random.Generator,
    ) -> Optional[np.ndarray]:
        """:meth:`generate_batch` through a native mask draw, or ``None``.

        ``draw`` is a provider's ``mask_fn``.  Every row consumes the same
        block of uniforms, so the kernel jumps the generator one block
        ahead and draws two rows at once from independent states.  It
        sets the sites whose uniform falls below the selection band
        directly, counts the band's values into 256 buckets, and
        quickselects the boundary inside the one bucket that holds it.
        The band is centred on the expected boundary; its half-width of
        ``_BAND_SIGMAS`` binomial standard deviations plus as many sites
        (which covers the heavier tail of small counts) keeps the chance
        that a row's boundary falls outside it below 1e-9 at any site
        count and fraction.  ``None`` (a boundary outside the band, or a
        tie) leaves ``rng`` untouched for :meth:`numpy_batch`.
        """
        base, remainder = self._split_count(n_sites)
        sd = math.sqrt((base + 1) * (1.0 - base / n_sites))
        centre = (base + 0.5) / n_sites
        half = _BAND_SIGMAS * (sd + _BAND_SIGMAS) / n_sites
        return draw(
            rng.bit_generator, n_sites, n_draws, base, remainder,
            centre - half, centre + half,
        )

    def numpy_batch(
        self, n_sites: int, n_draws: int, rng: np.random.Generator
    ) -> np.ndarray:
        """:meth:`generate_batch` in NumPy: the reference for the native
        draw, and the path for every other generator or provider."""
        base, remainder = self._split_count(n_sites)
        cols = n_sites + 1 if remainder > 0.0 else n_sites
        block = rng.random((n_draws, cols))
        counts = np.full(n_draws, base)
        if remainder > 0.0:
            counts += block[:, n_sites] < remainder
        flags = np.zeros((n_draws, n_sites), dtype=np.uint8)
        if base >= n_sites:
            flags[:] = 1  # fraction == 1.0: every site flips, every draw
        else:
            # Indices [:base] of the partition are each row's base
            # smallest uniforms; index base is the (base+1)-th, used only
            # by rows whose stochastic rounding added a site.
            part = np.argpartition(block[:, :n_sites], base, axis=1)
            rows = np.arange(n_draws)
            if base > 0:
                flags[rows[:, None], part[:, :base]] = 1
            extra = rows[counts > base]
            flags[extra, part[extra, base]] = 1
        return pack_flags(flags)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactFractionMask({self._fraction!r})"


class BernoulliMask(MaskPolicy):
    """Flip each site independently with probability ``p``.

    Matches the closed-form models in :mod:`repro.analysis`, which assume
    independent per-bit flips.
    """

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"probability must be within [0, 1], got {probability}"
            )
        self._probability = probability

    @property
    def probability(self) -> float:
        """Per-site flip probability."""
        return self._probability

    def expected_faults(self, n_sites: int) -> float:
        return self._probability * n_sites

    def generate(self, n_sites: int, rng: np.random.Generator) -> int:
        if n_sites < 0:
            raise ValueError(f"n_sites must be non-negative, got {n_sites}")
        if n_sites == 0 or self._probability == 0.0:
            return 0
        flags = (rng.random(n_sites) < self._probability).astype(np.uint8)
        return _pack_sites(flags)

    def generate_batch(
        self, n_sites: int, n_draws: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Fully vectorized draw: one RNG call for the whole batch.

        ``Generator.random`` fills row-major from the underlying bit
        stream, so one ``(n_draws, n_sites)`` draw yields the same uniform
        variates as ``n_draws`` successive ``random(n_sites)`` calls --
        stream-identical to the scalar path by construction (asserted by
        the equivalence tests).
        """
        if n_sites < 0:
            raise ValueError(f"n_sites must be non-negative, got {n_sites}")
        if n_draws < 0:
            raise ValueError(f"n_draws must be non-negative, got {n_draws}")
        if n_sites == 0 or self._probability == 0.0:
            return np.zeros((n_draws, words_for_sites(n_sites)), dtype="<u8")
        flags = (
            rng.random((n_draws, n_sites)) < self._probability
        ).astype(np.uint8)
        return pack_flags(flags)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BernoulliMask({self._probability!r})"


class BurstMask(MaskPolicy):
    """Spatially-correlated faults: clusters of adjacent flipped sites.

    The paper models uniformly distributed transients, but physical
    upsets in dense nanodevice arrays cluster -- one particle strike or
    one fabrication blemish takes out a *run* of neighbouring cells.
    ``BurstMask`` flips the same expected number of sites as
    :class:`ExactFractionMask` at the same fraction, but groups them
    into bursts of ``burst_length`` consecutive sites, so layout
    decisions (e.g. whether a TMR string's copies are blocked or
    interleaved) become visible.
    """

    def __init__(self, fraction: float, burst_length: int = 4) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        if burst_length <= 0:
            raise ValueError(
                f"burst_length must be positive, got {burst_length}"
            )
        self._fraction = fraction
        self._burst_length = burst_length

    @property
    def fraction(self) -> float:
        """Expected fraction of sites flipped per computation."""
        return self._fraction

    @property
    def burst_length(self) -> int:
        """Sites per burst."""
        return self._burst_length

    def expected_faults(self, n_sites: int) -> float:
        return self._fraction * n_sites

    def generate(self, n_sites: int, rng: np.random.Generator) -> int:
        if n_sites < 0:
            raise ValueError(f"n_sites must be non-negative, got {n_sites}")
        if n_sites == 0 or self._fraction == 0.0:
            return 0
        exact_bursts = self._fraction * n_sites / self._burst_length
        count = int(exact_bursts)
        remainder = exact_bursts - count
        if remainder > 0.0 and rng.random() < remainder:
            count += 1
        if count == 0:
            return 0
        flags = np.zeros(n_sites, dtype=np.uint8)
        starts = rng.integers(0, n_sites, size=count)
        for start in starts:
            end = min(int(start) + self._burst_length, n_sites)
            flags[int(start):end] = 1
        return _pack_sites(flags)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BurstMask({self._fraction!r}, burst_length={self._burst_length})"


class FixedCountMask(MaskPolicy):
    """Flip exactly ``count`` distinct sites per draw.

    Used by targeted experiments ("what does one fault in the voter do?")
    rather than the percentage sweeps.
    """

    def __init__(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._count = count

    @property
    def count(self) -> int:
        """Number of sites flipped per draw."""
        return self._count

    def expected_faults(self, n_sites: int) -> float:
        return float(min(self._count, n_sites))

    def generate(self, n_sites: int, rng: np.random.Generator) -> int:
        if self._count > n_sites:
            raise ValueError(
                f"cannot flip {self._count} of only {n_sites} sites"
            )
        if self._count == 0:
            return 0
        flags = np.zeros(n_sites, dtype=np.uint8)
        flags[rng.choice(n_sites, size=self._count, replace=False)] = 1
        return _pack_sites(flags)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedCountMask({self._count!r})"
