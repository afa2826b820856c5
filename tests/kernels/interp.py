"""Row-at-a-time reference interpreter for lowered kernel plans.

:func:`eval_batch` evaluates any :class:`~repro.kernels.plan.KernelPlan`
over a batch of packed ``uint64`` fault words, one row and one LUT read
or gate at a time, with the C kernel's signature.  It is the
specification the generated C kernel (:mod:`repro.kernels.csrc`)
transliterates line for line -- integer scalars, flat ``ndarray``
indexing, plain loops -- and the tests pin the C kernel against it read
by read.  It is far too slow to run a campaign.

Sites are addressed directly in the packed representation: site ``i`` of
batch row ``r`` is bit ``i % 64`` of word ``words[r * n_words + i // 64]``.
This is the zero-copy contract -- the mask words drawn by
``MaskPolicy.generate_batch`` are evaluated as-is, with no
``unpack_flags`` expansion to one byte per site.
"""

from __future__ import annotations

from repro.kernels.plan import (
    COMP_SPACE,
    COMP_TIME,
    GATE_AND,
    GATE_BUF,
    GATE_NAND,
    GATE_NOR,
    GATE_NOT,
    GATE_OR,
    H_BASE0,
    H_COMP,
    H_CORE,
    H_IMAP,
    H_SCRATCH,
    H_STORE0,
    H_VOTER,
    H_VOTER_BASE,
    LUT_IDENTITY,
    LUT_REPETITION,
    NODE_LUT,
    SRC_GATE,
    SRC_INPUT,
)


def bit_at(words, wb, site):
    # int() first: mixing a uint64 element with Python-int shifts is
    # a NumPy casting error.
    return (int(words[wb + (site >> 6)]) >> int(site & 63)) & 1


def lut_read(ipool, bpool, words, wb, lut, base, addr):
    scheme = ipool[lut]
    flip = 0
    if scheme == LUT_IDENTITY:
        flip = bit_at(words, wb, base + addr)
    elif scheme == LUT_REPETITION:
        copies = ipool[lut + 4]
        pos = ipool[lut + 5] + addr * copies
        ones = 0
        for c in range(copies):
            ones += bit_at(words, wb, base + ipool[pos + c])
        if ones > copies // 2:
            flip = 1
    else:
        block_size = ipool[lut + 4]
        code_bits = ipool[lut + 5]
        columns = ipool[lut + 9]
        block = addr // block_size
        payload = addr - block * block_size
        offset = ipool[ipool[lut + 6] + block]
        syndrome = 0
        for j in range(code_bits):
            if bit_at(words, wb, base + offset + j) != 0:
                syndrome ^= ipool[columns + j]
        data_col = ipool[ipool[lut + 7] + payload]
        raw = bit_at(words, wb, base + offset + data_col)
        corrector = 0
        if (
            syndrome == ipool[columns + data_col]
            or bpool[ipool[lut + 8] + syndrome] != 0
        ):
            corrector = 1
        flip = raw ^ corrector
    return int(bpool[ipool[lut + 2] + addr]) ^ flip


def netlist_eval(ipool, words, wb, net, base, v0, v1, v2, scratch, inbase):
    n_gates = ipool[net + 1]
    p = ipool[net + 2]
    n_inputs = ipool[net + 3]
    invar = ipool[net + 4]
    for k in range(n_inputs):
        var = ipool[invar + 2 * k]
        bit_index = ipool[invar + 2 * k + 1]
        if var == 0:
            source = v0
        elif var == 1:
            source = v1
        else:
            source = v2
        scratch[inbase + k] = (source >> bit_index) & 1
    for g in range(n_gates):
        gate = ipool[p]
        n_src = ipool[p + 1]
        p += 2
        kind = ipool[p]
        index = ipool[p + 1]
        p += 2
        if kind == SRC_GATE:
            value = int(scratch[index])
        elif kind == SRC_INPUT:
            value = int(scratch[inbase + index])
        else:
            value = 1 if index != 0 else 0
        if gate == GATE_NOT:
            value ^= 1
            p += 2 * (n_src - 1)
        elif gate == GATE_BUF:
            p += 2 * (n_src - 1)
        else:
            for _s in range(n_src - 1):
                kind = ipool[p]
                index = ipool[p + 1]
                p += 2
                if kind == SRC_GATE:
                    other = int(scratch[index])
                elif kind == SRC_INPUT:
                    other = int(scratch[inbase + index])
                else:
                    other = 1 if index != 0 else 0
                if gate == GATE_AND or gate == GATE_NAND:
                    value &= other
                elif gate == GATE_OR or gate == GATE_NOR:
                    value |= other
                else:
                    value ^= other
            if gate == GATE_NAND or gate == GATE_NOR:
                value ^= 1
        scratch[g] = value ^ bit_at(words, wb, base + g)
    out_off = ipool[net + 5]
    n_out = ipool[net + 6]
    bundle = 0
    for o in range(n_out):
        kind = ipool[out_off + 2 * o]
        index = ipool[out_off + 2 * o + 1]
        if kind == SRC_GATE:
            value = int(scratch[index])
        elif kind == SRC_INPUT:
            value = int(scratch[inbase + index])
        else:
            value = 1 if index != 0 else 0
        bundle |= value << o
    return bundle


def core_eval(
    ipool, bpool, words, wb, core, base, op, internal, a, b,
    scratch, inbase,
):
    if ipool[core] == NODE_LUT:
        result_lut = ipool[core + 1]
        carry_lut = ipool[core + 2]
        r_off = ipool[core + 3]
        c_off = ipool[core + 4]
        width = ipool[core + 5]
        op_addr = internal << 3
        carry = 0
        value = 0
        for s in range(width):
            addr = (
                ((a >> s) & 1) | (((b >> s) & 1) << 1)
                | (carry << 2) | op_addr
            )
            bit = lut_read(
                ipool, bpool, words, wb, result_lut,
                base + ipool[r_off + s], addr,
            )
            carry = lut_read(
                ipool, bpool, words, wb, carry_lut,
                base + ipool[c_off + s], addr,
            )
            value |= bit << s
        return value | (carry << 8)
    return netlist_eval(
        ipool, words, wb, ipool[core + 1], base, a, b, op,
        scratch, inbase,
    )


def voter_eval(ipool, bpool, words, wb, voter, base, x, y, z,
               scratch, inbase):
    if ipool[voter] == NODE_LUT:
        lut = ipool[voter + 1]
        offsets = ipool[voter + 2]
        width = ipool[voter + 3]
        out = 0
        for s in range(width):
            addr = (
                ((x >> s) & 1) | (((y >> s) & 1) << 1)
                | (((z >> s) & 1) << 2) | (1 << 3)
            )
            out |= lut_read(
                ipool, bpool, words, wb, lut,
                base + ipool[offsets + s], addr,
            ) << s
        return out
    return netlist_eval(
        ipool, words, wb, ipool[voter + 1], base, x, y, z,
        scratch, inbase,
    )


def stored_pass(
    ipool, bpool, words, wb, core, base, reg_off, op, internal, a, b,
    scratch, inbase,
):
    bundle = core_eval(
        ipool, bpool, words, wb, core, base, op, internal, a, b,
        scratch, inbase,
    )
    register = 0
    for j in range(9):
        register |= bit_at(words, wb, reg_off + j) << j
    return bundle ^ register


def eval_batch(header, ipool, bpool, ops, va, vb, words, n, n_words,
               out, scratch):
    comp = header[H_COMP]
    core = header[H_CORE]
    voter = header[H_VOTER]
    imap = header[H_IMAP]
    inbase = header[H_SCRATCH] - 64
    for i in range(n):
        wb = i * n_words
        op = ops[i]
        a = va[i]
        b = vb[i]
        internal = ipool[imap + op]
        if comp == COMP_SPACE:
            b0 = core_eval(
                ipool, bpool, words, wb, core, header[H_BASE0],
                op, internal, a, b, scratch, inbase,
            )
            b1 = core_eval(
                ipool, bpool, words, wb, core, header[H_BASE0 + 1],
                op, internal, a, b, scratch, inbase,
            )
            b2 = core_eval(
                ipool, bpool, words, wb, core, header[H_BASE0 + 2],
                op, internal, a, b, scratch, inbase,
            )
            bundle = voter_eval(
                ipool, bpool, words, wb, voter, header[H_VOTER_BASE],
                b0, b1, b2, scratch, inbase,
            )
        elif comp == COMP_TIME:
            s0 = stored_pass(
                ipool, bpool, words, wb, core, header[H_BASE0],
                header[H_STORE0], op, internal, a, b, scratch, inbase,
            )
            s1 = stored_pass(
                ipool, bpool, words, wb, core, header[H_BASE0 + 1],
                header[H_STORE0 + 1], op, internal, a, b,
                scratch, inbase,
            )
            s2 = stored_pass(
                ipool, bpool, words, wb, core, header[H_BASE0 + 2],
                header[H_STORE0 + 2], op, internal, a, b,
                scratch, inbase,
            )
            bundle = voter_eval(
                ipool, bpool, words, wb, voter, header[H_VOTER_BASE],
                s0, s1, s2, scratch, inbase,
            )
        else:
            bundle = core_eval(
                ipool, bpool, words, wb, core, header[H_BASE0],
                op, internal, a, b, scratch, inbase,
            )
        out[i] = bundle
