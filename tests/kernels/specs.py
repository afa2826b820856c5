"""The plan support-set grid shared by the kernel tests.

Every Table 2 variant, every simplex decoding scheme (the syndrome
schemes also at block sizes 4 and 8), and the faulty-voter ablation's
space-redundant units.  ``parity`` and ``hamming-gate`` are the only
schemes with no lowered form.
"""

from repro.alu.variants import variant_names
from repro.perf.spec import ALUSpec

SYNDROME_SCHEMES = ("hamming", "hamming-sec", "hamming-fp", "hsiao")

#: Schemes whose units stay scalar (no plan).
UNLOWERED_SCHEMES = ("parity", "hamming-gate")

#: ``(test id, spec)`` for every unit on the grid.
GRID = (
    [(v, ALUSpec.variant(v)) for v in variant_names()]
    + [
        (f"simplex-{s}", ALUSpec.simplex(s))
        for s in ("none", "tmr", "5mr", "7mr") + SYNDROME_SCHEMES
        + UNLOWERED_SCHEMES
    ]
    + [
        (f"simplex-{s}-block{block}", ALUSpec.simplex(s, block_size=block))
        for s in SYNDROME_SCHEMES
        for block in (4, 8)
    ]
    + [
        (f"space-tmr-voter-{voter}", ALUSpec.space("tmr", voter))
        for voter in ("tmr", "none", "hamming", "cmos")
    ]
)

#: The grid's units that lower to a plan.
LOWERED = [(name, spec) for name, spec in GRID
           if spec.scheme not in UNLOWERED_SCHEMES]
