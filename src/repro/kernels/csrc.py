"""Generated C source for the compiled kernel tier.

A transliteration of the row-at-a-time reference interpreter kept with
the tests (``tests/kernels/interp.py``) -- same plan format, same
arithmetic, same evaluation order -- compiled once per machine by
:mod:`repro.kernels.cbuild` and called through ``ctypes``.  Each of the
three entries is its own translation unit (:func:`c_source` of an
:data:`ENTRIES` name), carrying only the prelude it needs, so a process
compiles only the entries it calls.  ``eval`` is the plan evaluator:

.. code-block:: c

   void repro_eval_batch(const int64_t *header, const int64_t *ipool,
                         const uint8_t *bpool, const int64_t *ops,
                         const int64_t *va, const int64_t *vb,
                         const uint64_t *words, int64_t n,
                         int64_t n_words, int64_t *out, uint8_t *scratch);

``mask``, where the compiler has 128-bit integers, is the exact-fraction
mask draw behind :meth:`repro.faults.mask.ExactFractionMask.generate_batch`:

.. code-block:: c

   int64_t repro_exact_fraction(uint64_t *pcg, int64_t n_sites,
                                int64_t n_draws, int64_t base,
                                double remainder, double tlo, double thi,
                                uint64_t *words, uint64_t *band_val,
                                int64_t *band_idx);

and ``tape``, under the same guard, is the temporal fault-stream scan
behind :class:`repro.faults.schedule.StreamBank`:

.. code-block:: c

   void repro_tape_scan(uint64_t *pcg, const int64_t *cells, int64_t n,
                        const int64_t *limits, double rate, int64_t *hits);

Both reproduce NumPy's ``PCG64`` ``random()`` doubles from registers
(state high/low, increment high/low) through one step that both of
their sources carry, so they consume exactly the uniforms the NumPy
bodies would.  The mask draw
advances the one generator in ``pcg``.  Every row consumes a fixed block
of ``n_sites`` uniforms plus one for rounding when ``remainder > 0``,
so the kernel computes the LCG jump over one block once per call (square
and multiply) and draws rows two at a time: row ``d + 1`` starts one
jump past row ``d``, and one fused loop steps both independent states,
each with its own band buffers; an odd last row runs alone.  Each row
flips the sites below ``tlo`` directly and keeps the sites in ``[tlo,
thi)`` as a band.  One counting pass over 256 equal buckets of the band
finds the bucket that holds the boundary, and a quickselect over that
bucket's values finds the boundary itself.  ``band_val`` holds
``3 * n_sites`` values (two rows' bands and the bucket scratch) and
``band_idx`` ``2 * n_sites`` site indices.  It returns 0 and advances
``pcg`` on success; it returns 1 with ``pcg`` untouched when a row's
boundary lies outside the band or is tied, and the caller redraws in
NumPy.

The tape scan reads the four registers of cell ``cells[j]`` at ``pcg +
4 * cells[j]``, draws until one uniform falls below ``rate`` or
``limits[j]`` draws are spent, stores the hit's offset (``-1`` for
none) in ``hits[j]`` and writes the registers back after exactly the
draws consumed.

The ``__int128`` functions build at ``-O1`` (``MASK_FN``) because every
process that finds the cache empty pays for the build, and the mask
draw runs no slower for it.  ``eval`` stays at ``-O2``: with gcc 12 on
x86-64, ``-O1`` compiles it in 0.12 s instead of 0.19 s but runs the
lowered Table 2 variants 24% slower.

All layout constants are injected from :mod:`repro.kernels.plan` at
format time, so the two executors can never drift on the encoding.
"""

from __future__ import annotations

from repro.kernels import plan as _p

_PRELUDE = r"""
#include <stdint.h>

#define KERNEL_ABI_VERSION {abi_version}
"""

_EVAL = r"""
static int64_t bit_at(const uint64_t *words, int64_t wb, int64_t site) {{
    return (int64_t)((words[wb + (site >> 6)] >> (site & 63)) & 1u);
}}

static int64_t lut_read(const int64_t *ipool, const uint8_t *bpool,
                        const uint64_t *words, int64_t wb, int64_t lut,
                        int64_t base, int64_t addr) {{
    int64_t scheme = ipool[lut];
    int64_t flip = 0;
    if (scheme == {LUT_IDENTITY}) {{
        flip = bit_at(words, wb, base + addr);
    }} else if (scheme == {LUT_REPETITION}) {{
        int64_t copies = ipool[lut + 4];
        int64_t pos = ipool[lut + 5] + addr * copies;
        int64_t ones = 0;
        for (int64_t c = 0; c < copies; c++)
            ones += bit_at(words, wb, base + ipool[pos + c]);
        if (ones > copies / 2) flip = 1;
    }} else {{
        int64_t block_size = ipool[lut + 4];
        int64_t code_bits = ipool[lut + 5];
        int64_t columns = ipool[lut + 9];
        int64_t block = addr / block_size;
        int64_t payload = addr - block * block_size;
        int64_t offset = ipool[ipool[lut + 6] + block];
        int64_t syndrome = 0;
        for (int64_t j = 0; j < code_bits; j++)
            if (bit_at(words, wb, base + offset + j) != 0)
                syndrome ^= ipool[columns + j];
        int64_t data_col = ipool[ipool[lut + 7] + payload];
        int64_t raw = bit_at(words, wb, base + offset + data_col);
        int64_t corrector = 0;
        if (syndrome == ipool[columns + data_col]
            || bpool[ipool[lut + 8] + syndrome] != 0) corrector = 1;
        flip = raw ^ corrector;
    }}
    return (int64_t)bpool[ipool[lut + 2] + addr] ^ flip;
}}

static int64_t netlist_eval(const int64_t *ipool, const uint64_t *words,
                            int64_t wb, int64_t net, int64_t base,
                            int64_t v0, int64_t v1, int64_t v2,
                            uint8_t *scratch, int64_t inbase) {{
    int64_t n_gates = ipool[net + 1];
    int64_t p = ipool[net + 2];
    int64_t n_inputs = ipool[net + 3];
    int64_t invar = ipool[net + 4];
    for (int64_t k = 0; k < n_inputs; k++) {{
        int64_t var = ipool[invar + 2 * k];
        int64_t bit_index = ipool[invar + 2 * k + 1];
        int64_t source = var == 0 ? v0 : (var == 1 ? v1 : v2);
        scratch[inbase + k] = (uint8_t)((source >> bit_index) & 1);
    }}
    for (int64_t g = 0; g < n_gates; g++) {{
        int64_t gate = ipool[p];
        int64_t n_src = ipool[p + 1];
        p += 2;
        int64_t kind = ipool[p];
        int64_t index = ipool[p + 1];
        p += 2;
        int64_t value;
        if (kind == {SRC_GATE}) value = scratch[index];
        else if (kind == {SRC_INPUT}) value = scratch[inbase + index];
        else value = index != 0 ? 1 : 0;
        if (gate == {GATE_NOT}) {{
            value ^= 1;
            p += 2 * (n_src - 1);
        }} else if (gate == {GATE_BUF}) {{
            p += 2 * (n_src - 1);
        }} else {{
            for (int64_t s = 1; s < n_src; s++) {{
                kind = ipool[p];
                index = ipool[p + 1];
                p += 2;
                int64_t other;
                if (kind == {SRC_GATE}) other = scratch[index];
                else if (kind == {SRC_INPUT}) other = scratch[inbase + index];
                else other = index != 0 ? 1 : 0;
                if (gate == {GATE_AND} || gate == {GATE_NAND}) value &= other;
                else if (gate == {GATE_OR} || gate == {GATE_NOR}) value |= other;
                else value ^= other;
            }}
            if (gate == {GATE_NAND} || gate == {GATE_NOR}) value ^= 1;
        }}
        scratch[g] = (uint8_t)(value ^ bit_at(words, wb, base + g));
    }}
    int64_t out_off = ipool[net + 5];
    int64_t n_out = ipool[net + 6];
    int64_t bundle = 0;
    for (int64_t o = 0; o < n_out; o++) {{
        int64_t kind = ipool[out_off + 2 * o];
        int64_t index = ipool[out_off + 2 * o + 1];
        int64_t value;
        if (kind == {SRC_GATE}) value = scratch[index];
        else if (kind == {SRC_INPUT}) value = scratch[inbase + index];
        else value = index != 0 ? 1 : 0;
        bundle |= value << o;
    }}
    return bundle;
}}

static int64_t core_eval(const int64_t *ipool, const uint8_t *bpool,
                         const uint64_t *words, int64_t wb, int64_t core,
                         int64_t base, int64_t op, int64_t internal,
                         int64_t a, int64_t b, uint8_t *scratch,
                         int64_t inbase) {{
    if (ipool[core] == {NODE_LUT}) {{
        int64_t result_lut = ipool[core + 1];
        int64_t carry_lut = ipool[core + 2];
        int64_t r_off = ipool[core + 3];
        int64_t c_off = ipool[core + 4];
        int64_t width = ipool[core + 5];
        int64_t op_addr = internal << 3;
        int64_t carry = 0;
        int64_t value = 0;
        for (int64_t s = 0; s < width; s++) {{
            int64_t addr = ((a >> s) & 1) | (((b >> s) & 1) << 1)
                | (carry << 2) | op_addr;
            int64_t bit = lut_read(ipool, bpool, words, wb, result_lut,
                                   base + ipool[r_off + s], addr);
            carry = lut_read(ipool, bpool, words, wb, carry_lut,
                             base + ipool[c_off + s], addr);
            value |= bit << s;
        }}
        return value | (carry << 8);
    }}
    return netlist_eval(ipool, words, wb, ipool[core + 1], base, a, b, op,
                        scratch, inbase);
}}

static int64_t voter_eval(const int64_t *ipool, const uint8_t *bpool,
                          const uint64_t *words, int64_t wb, int64_t voter,
                          int64_t base, int64_t x, int64_t y, int64_t z,
                          uint8_t *scratch, int64_t inbase) {{
    if (ipool[voter] == {NODE_LUT}) {{
        int64_t lut = ipool[voter + 1];
        int64_t offsets = ipool[voter + 2];
        int64_t width = ipool[voter + 3];
        int64_t out = 0;
        for (int64_t s = 0; s < width; s++) {{
            int64_t addr = ((x >> s) & 1) | (((y >> s) & 1) << 1)
                | (((z >> s) & 1) << 2) | (1 << 3);
            out |= lut_read(ipool, bpool, words, wb, lut,
                            base + ipool[offsets + s], addr) << s;
        }}
        return out;
    }}
    return netlist_eval(ipool, words, wb, ipool[voter + 1], base, x, y, z,
                        scratch, inbase);
}}

static int64_t stored_pass(const int64_t *ipool, const uint8_t *bpool,
                           const uint64_t *words, int64_t wb, int64_t core,
                           int64_t base, int64_t reg_off, int64_t op,
                           int64_t internal, int64_t a, int64_t b,
                           uint8_t *scratch, int64_t inbase) {{
    int64_t bundle = core_eval(ipool, bpool, words, wb, core, base, op,
                               internal, a, b, scratch, inbase);
    int64_t reg = 0;
    for (int64_t j = 0; j < 9; j++)
        reg |= bit_at(words, wb, reg_off + j) << j;
    return bundle ^ reg;
}}

void repro_eval_batch(const int64_t *header, const int64_t *ipool,
                      const uint8_t *bpool, const int64_t *ops,
                      const int64_t *va, const int64_t *vb,
                      const uint64_t *words, int64_t n, int64_t n_words,
                      int64_t *out, uint8_t *scratch) {{
    int64_t comp = header[{H_COMP}];
    int64_t core = header[{H_CORE}];
    int64_t voter = header[{H_VOTER}];
    int64_t imap = header[{H_IMAP}];
    int64_t inbase = header[{H_SCRATCH}] - {INPUT_SCRATCH};
    for (int64_t i = 0; i < n; i++) {{
        int64_t wb = i * n_words;
        int64_t op = ops[i];
        int64_t a = va[i];
        int64_t b = vb[i];
        int64_t internal = ipool[imap + op];
        int64_t bundle;
        if (comp == {COMP_SPACE}) {{
            int64_t b0 = core_eval(ipool, bpool, words, wb, core,
                                   header[{H_BASE0}], op, internal, a, b,
                                   scratch, inbase);
            int64_t b1 = core_eval(ipool, bpool, words, wb, core,
                                   header[{H_BASE0} + 1], op, internal, a, b,
                                   scratch, inbase);
            int64_t b2 = core_eval(ipool, bpool, words, wb, core,
                                   header[{H_BASE0} + 2], op, internal, a, b,
                                   scratch, inbase);
            bundle = voter_eval(ipool, bpool, words, wb, voter,
                                header[{H_VOTER_BASE}], b0, b1, b2,
                                scratch, inbase);
        }} else if (comp == {COMP_TIME}) {{
            int64_t s0 = stored_pass(ipool, bpool, words, wb, core,
                                     header[{H_BASE0}], header[{H_STORE0}],
                                     op, internal, a, b, scratch, inbase);
            int64_t s1 = stored_pass(ipool, bpool, words, wb, core,
                                     header[{H_BASE0} + 1],
                                     header[{H_STORE0} + 1],
                                     op, internal, a, b, scratch, inbase);
            int64_t s2 = stored_pass(ipool, bpool, words, wb, core,
                                     header[{H_BASE0} + 2],
                                     header[{H_STORE0} + 2],
                                     op, internal, a, b, scratch, inbase);
            bundle = voter_eval(ipool, bpool, words, wb, voter,
                                header[{H_VOTER_BASE}], s0, s1, s2,
                                scratch, inbase);
        }} else {{
            bundle = core_eval(ipool, bpool, words, wb, core,
                               header[{H_BASE0}], op, internal, a, b,
                               scratch, inbase);
        }}
        out[i] = bundle;
    }}
}}
"""

#: The PCG64 step the mask draw and the tape scan share, opening the
#: 128-bit guard that :data:`_PCG_END` closes.
_PCG = r"""
#ifdef __SIZEOF_INT128__
#if defined(__GNUC__) && !defined(__clang__)
#define MASK_FN __attribute__((optimize("O1")))
#else
#define MASK_FN
#endif

#define PCG_MULT (((__uint128_t)0x2360ED051FC65DA4ULL << 64) \
                  | 0x4385DF649FCCF645ULL)

/* One PCG64 step; returns the 53-bit integer m of NumPy's random()
   double m * 2^-53, so a uniform test u < p is the integer test
   m < ceil(p * 2^53). */
static MASK_FN inline __attribute__((always_inline)) uint64_t
pcg_draw53(__uint128_t *state, __uint128_t inc) {{
    *state = *state * PCG_MULT + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    return ((x >> rot) | (x << ((-rot) & 63))) >> 11;
}}
"""

_MASK = r"""
/* The LCG jump of k steps: after k draws a state s has become
   s * mult + add (square-and-multiply, as in PCG's advance). */
static MASK_FN void
pcg_jump(__uint128_t inc, uint64_t k, __uint128_t *mult, __uint128_t *add) {{
    __uint128_t cur_mult = PCG_MULT, cur_add = inc;
    __uint128_t acc_mult = 1, acc_add = 0;
    for (; k > 0; k >>= 1) {{
        if (k & 1) {{
            acc_mult *= cur_mult;
            acc_add = acc_add * cur_mult + cur_add;
        }}
        cur_add = (cur_mult + 1) * cur_add;
        cur_mult *= cur_mult;
    }}
    *mult = acc_mult;
    *add = acc_add;
}}

/* One row being drawn: its generator state, its packed words and its
   band of (value, site) pairs. */
struct lane {{
    __uint128_t state;
    uint64_t *row;
    uint64_t *val;
    int64_t *idx;
    int64_t n_band;
}};

/* Draws the uniform m of one site for one lane and returns m - lo, whose
   top bit is set exactly when m < lo (both are below 2^53).  Branch-free:
   at mid-range fractions the tests are coin flips.  The band slot is
   written unconditionally and kept only when lo <= m < hi (one unsigned
   compare); n_band never exceeds the sites seen so far, so it stays in
   bounds. */
static MASK_FN inline __attribute__((always_inline)) uint64_t
lane_site(struct lane *l, __uint128_t inc, uint64_t lo, uint64_t width,
          int64_t site) {{
    uint64_t m = pcg_draw53(&l->state, inc);
    uint64_t off = m - lo;
    l->val[l->n_band] = m;
    l->idx[l->n_band] = site;
    l->n_band += (int64_t)(off < width);
    return off;
}}

/* The k-th smallest (0-based) of val[0, n), partially sorting val. */
static MASK_FN uint64_t
value_select(uint64_t *val, int64_t n, int64_t k) {{
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {{
        uint64_t pivot = val[lo + (hi - lo) / 2];
        int64_t i = lo, j = hi;
        while (i <= j) {{
            while (val[i] < pivot) i++;
            while (val[j] > pivot) j--;
            if (i <= j) {{
                uint64_t v = val[i]; val[i] = val[j]; val[j] = v;
                i++;
                j--;
            }}
        }}
        if (k <= j) hi = j;
        else if (k >= i) lo = i;
        else break;
    }}
    return val[k];
}}

/* Completes a lane whose n_sites uniforms are drawn: draws the rounding
   uniform, finds the boundary of the count smallest values and sets the
   band sites at or below it.  The boundary's bucket among 256 equal
   buckets of [lo, lo + (256 << shift)) comes from one counting pass; a
   quickselect over that bucket's values, gathered into scratch, finds
   the boundary.  Returns 1 when the boundary lies outside the band or
   is tied, 0 otherwise. */
static MASK_FN int64_t
lane_finish(struct lane *l, __uint128_t inc, int64_t n_words, int64_t base,
            double remainder, uint64_t lo, unsigned shift,
            uint64_t *scratch) {{
    int64_t count = base;
    if (remainder > 0.0) {{
        uint64_t m = pcg_draw53(&l->state, inc);
        if ((double)m * (1.0 / 9007199254740992.0) < remainder) count++;
    }}
    if (count == 0) {{
        for (int64_t w = 0; w < n_words; w++) l->row[w] = 0;
        return 0;
    }}
    int64_t below = 0;
    for (int64_t w = 0; w < n_words; w++)
        below += __builtin_popcountll(l->row[w]);
    int64_t need = count - below;
    if (need < 1 || need > l->n_band) return 1;
    int64_t buckets[256] = {{0}};
    for (int64_t b = 0; b < l->n_band; b++)
        buckets[(l->val[b] - lo) >> shift]++;
    int64_t rank = need - 1;
    uint64_t target = 0;
    while (rank >= buckets[target]) rank -= buckets[target++];
    int64_t n = 0;
    for (int64_t b = 0; b < l->n_band; b++) {{
        scratch[n] = l->val[b];
        n += (int64_t)(((l->val[b] - lo) >> shift) == target);
    }}
    uint64_t boundary = value_select(scratch, n, rank);
    int64_t taken = 0;
    for (int64_t b = 0; b < l->n_band; b++) {{
        uint64_t hit = l->val[b] <= boundary;
        l->row[l->idx[b] >> 6] |= hit << (l->idx[b] & 63);
        taken += (int64_t)hit;
    }}
    return taken != need;
}}

MASK_FN int64_t repro_exact_fraction(uint64_t *pcg, int64_t n_sites,
                                     int64_t n_draws, int64_t base,
                                     double remainder, double tlo,
                                     double thi, uint64_t *words,
                                     uint64_t *band_val, int64_t *band_idx) {{
    const __uint128_t inc = ((__uint128_t)pcg[2] << 64) | pcg[3];
    __uint128_t state = ((__uint128_t)pcg[0] << 64) | pcg[1];
    int64_t n_words = (n_sites + 63) >> 6;
    /* Every row consumes the same block of uniforms, so row d + 1 starts
       where a jump of one block from row d's start lands. */
    __uint128_t mult, add;
    pcg_jump(inc, (uint64_t)(n_sites + (remainder > 0.0)), &mult, &add);
    /* The band in units of the 53-bit draw m, where the double is
       m * 2^-53.  Any cut works: lane_finish's check that it took
       exactly the sites it needed is what makes the selection exact. */
    const double scale = 9007199254740992.0;
    uint64_t lo = tlo <= 0.0 ? 0 : (tlo >= 1.0 ? (uint64_t)1 << 53
                                                 : (uint64_t)(tlo * scale));
    uint64_t hi = thi <= 0.0 ? 0 : (thi >= 1.0 ? (uint64_t)1 << 53
                                                 : (uint64_t)(thi * scale));
    uint64_t width = hi > lo ? hi - lo : 0;
    unsigned shift = 0;
    while (width > 0 && ((width - 1) >> shift) >= 256) shift++;
    const uint64_t TOP = (uint64_t)1 << 63;
    uint64_t *scratch = band_val + 2 * n_sites;
    struct lane a = {{0, 0, band_val, band_idx, 0}};
    struct lane b = {{0, 0, band_val + n_sites, band_idx + n_sites, 0}};
    int64_t d = 0;
    for (; d + 1 < n_draws; d += 2) {{
        a.state = state;
        b.state = state * mult + add;
        a.row = words + d * n_words;
        b.row = a.row + n_words;
        a.n_band = b.n_band = 0;
        for (int64_t w = 0; w < n_words; w++) {{
            int64_t end = n_sites - (w << 6);
            if (end > 64) end = 64;
            /* Each site's below-band bit enters at the top. */
            uint64_t reg_a = 0, reg_b = 0;
            for (int64_t j = 0; j < end; j++) {{
                reg_a = (reg_a >> 1)
                    | (lane_site(&a, inc, lo, width, (w << 6) + j) & TOP);
                reg_b = (reg_b >> 1)
                    | (lane_site(&b, inc, lo, width, (w << 6) + j) & TOP);
            }}
            a.row[w] = reg_a >> (64 - end);
            b.row[w] = reg_b >> (64 - end);
        }}
        if (lane_finish(&a, inc, n_words, base, remainder, lo, shift,
                        scratch)
            || lane_finish(&b, inc, n_words, base, remainder, lo, shift,
                           scratch))
            return 1;
        state = b.state;
    }}
    if (d < n_draws) {{
        a.state = state;
        a.row = words + d * n_words;
        a.n_band = 0;
        for (int64_t w = 0; w < n_words; w++) {{
            int64_t end = n_sites - (w << 6);
            if (end > 64) end = 64;
            uint64_t reg = 0;
            for (int64_t j = 0; j < end; j++)
                reg = (reg >> 1)
                    | (lane_site(&a, inc, lo, width, (w << 6) + j) & TOP);
            a.row[w] = reg >> (64 - end);
        }}
        if (lane_finish(&a, inc, n_words, base, remainder, lo, shift,
                        scratch))
            return 1;
        state = a.state;
    }}
    pcg[0] = (uint64_t)(state >> 64);
    pcg[1] = (uint64_t)state;
    return 0;
}}
"""

_TAPE = r"""
MASK_FN void repro_tape_scan(uint64_t *pcg, const int64_t *cells, int64_t n,
                             const int64_t *limits, double rate,
                             int64_t *hits) {{
    /* ceil(rate * 2^53): the scaling is exact, so is the ceiling. */
    const double scaled = rate * 9007199254740992.0;
    uint64_t threshold = (uint64_t)scaled;
    if ((double)threshold < scaled) threshold++;
    for (int64_t j = 0; j < n; j++) {{
        uint64_t *reg = pcg + 4 * cells[j];
        __uint128_t state = ((__uint128_t)reg[0] << 64) | reg[1];
        const __uint128_t inc = ((__uint128_t)reg[2] << 64) | reg[3];
        int64_t hit = -1;
        for (int64_t k = 0; k < limits[j]; k++) {{
            if (pcg_draw53(&state, inc) < threshold) {{
                hit = k;
                break;
            }}
        }}
        hits[j] = hit;
        reg[0] = (uint64_t)(state >> 64);
        reg[1] = (uint64_t)state;
    }}
}}
"""

_PCG_END = "#endif\n"

#: Bump when the plan encoding or the C ABI changes: part of the build
#: cache key, so stale shared objects are never reloaded.
ABI_VERSION = 5


#: Each entry's template: the prelude it needs and its own body, so a
#: run compiles only what it calls.
_SOURCES = {
    "eval": _PRELUDE + _EVAL,
    "mask": _PRELUDE + _PCG + _MASK + _PCG_END,
    "tape": _PRELUDE + _PCG + _TAPE + _PCG_END,
}

#: The kernel entries, one translation unit each.
ENTRIES = tuple(_SOURCES)


def c_source(entry: str) -> str:
    """One entry's C source (see :data:`ENTRIES`), layout constants
    baked in."""
    return _SOURCES[entry].format(
        abi_version=ABI_VERSION,
        LUT_IDENTITY=_p.LUT_IDENTITY,
        LUT_REPETITION=_p.LUT_REPETITION,
        SRC_GATE=_p.SRC_GATE,
        SRC_INPUT=_p.SRC_INPUT,
        GATE_NOT=_p.GATE_NOT,
        GATE_BUF=_p.GATE_BUF,
        GATE_AND=_p.GATE_AND,
        GATE_OR=_p.GATE_OR,
        GATE_NAND=_p.GATE_NAND,
        GATE_NOR=_p.GATE_NOR,
        NODE_LUT=_p.NODE_LUT,
        COMP_SPACE=_p.COMP_SPACE,
        COMP_TIME=_p.COMP_TIME,
        H_COMP=_p.H_COMP,
        H_CORE=_p.H_CORE,
        H_VOTER=_p.H_VOTER,
        H_IMAP=_p.H_IMAP,
        H_SCRATCH=_p.H_SCRATCH,
        H_BASE0=_p.H_BASE0,
        H_VOTER_BASE=_p.H_VOTER_BASE,
        H_STORE0=_p.H_STORE0,
        INPUT_SCRATCH=_p.INPUT_SCRATCH,
    )
