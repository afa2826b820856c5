"""NumPy executor = C kernel = scalar ``compute``: the plan's two executors.

Every lowered unit of the support-set grid -- plus the bare NanoBox and
CMOS cores, whose gate netlists evaluate with no redundancy wrapper --
and a defective part of each runs batches of 0, 1 and a few hundred
random instructions under exact-fraction masks at 0, 5, 50 and 100 %.
Both executors must return the scalar unit's bundle on every row, and
setting the padding bits above ``site_count`` in every mask row must not
change any result.  Both executors share one input validation, which
must reject malformed batches before any row is read.
"""

import numpy as np
import pytest

from repro.alu.batched import BatchedEngine
from repro.alu.cmos import CMOSALU
from repro.alu.nanobox import NanoBoxALU
from repro.alu.variants import build_alu
from repro.faults.defects import DefectiveUnit, DefectOverlay, sample_defect_map
from repro.faults.mask import ExactFractionMask
from repro.faults.packing import WORD_BITS, words_to_int
from repro.kernels import CompiledEngine, build_engine, get_provider
from repro.kernels.plan import (
    COMP_SIMPLEX,
    H_BASE0,
    H_COMP,
    H_CORE,
    H_IMAP,
    H_SCRATCH,
    H_SITES,
    H_VOTER,
    HEADER_LEN,
    INPUT_SCRATCH,
    NODE_NETLIST,
    KernelPlan,
    _Builder,
    _lower_netlist,
)
from repro.logic.gates import GateType
from repro.logic.netlist import Netlist
from tests.kernels.interp import eval_batch
from tests.kernels.specs import LOWERED

UNITS = [(name, spec.build) for name, spec in LOWERED] + [
    ("bare-nanobox", NanoBoxALU),
    ("bare-cmos", CMOSALU),
]

FRACTIONS = (0.0, 0.05, 0.5, 1.0)
BATCH_SIZES = (0, 1, 200)
OPCODES = (0b000, 0b001, 0b010, 0b111)


def _engines(unit):
    """Both executors for ``unit`` (the C kernel only when it is live)."""
    engines = [build_engine(unit, "batched")]
    if get_provider() is not None:
        engines.append(build_engine(unit, "compiled"))
    return engines


def _with_padding(words, n_sites):
    """``words`` with every bit above ``n_sites`` set."""
    padded = words.copy()
    spare = words.shape[1] * WORD_BITS - n_sites
    if spare:
        padded[:, -1] |= np.uint64(((1 << spare) - 1) << (WORD_BITS - spare))
    return padded


@pytest.mark.parametrize("defective", [False, True], ids=["design", "part"])
@pytest.mark.parametrize("build", [b for _, b in UNITS], ids=[n for n, _ in UNITS])
def test_executors_match_scalar_compute(build, defective):
    unit = build()
    rng = np.random.default_rng([unit.site_count, defective])
    if defective:
        unit = DefectiveUnit(
            unit, sample_defect_map(unit.site_count, 0.02, rng)
        )
    engines = _engines(unit)
    assert isinstance(engines[0], DefectOverlay if defective else BatchedEngine)
    for n in BATCH_SIZES:
        ops = rng.choice(OPCODES, size=n)
        a = rng.integers(0, 256, size=n)
        b = rng.integers(0, 256, size=n)
        for fraction in FRACTIONS:
            words = ExactFractionMask(fraction).generate_batch(
                unit.site_count, n, rng
            )
            want = [
                unit.compute(
                    int(ops[r]), int(a[r]), int(b[r]),
                    fault_mask=words_to_int(words[r]),
                ).bundle
                for r in range(n)
            ]
            padded = _with_padding(words, unit.site_count)
            for engine in engines:
                for rows in (words, padded):
                    got = engine.bundles_words(ops, a, b, rows)
                    assert got.tolist() == want, (engine, n, fraction)
                assert engine.values_words(ops, a, b, words).tolist() == [
                    w & 0xFF for w in want
                ]


def _every_gate_netlist():
    """A netlist using every gate kind, wide fan-in and both constants
    (the Table 2 netlists use only AND, OR, XOR, NOT and BUF)."""
    net = Netlist("every_gate")
    a0, a1, b0, op0 = (net.input(name) for name in ("a0", "a1", "b0", "op0"))
    zero, one = net.const(0), net.const(1)
    nand = net.add(GateType.NAND, a0, b0, a1)
    nor = net.add(GateType.NOR, a1, op0, zero)
    xor = net.add(GateType.XOR, a0, one, b0)
    both = net.add(GateType.AND, nand, nor, one)
    either = net.add(GateType.OR, zero, xor, both)
    inverted = net.add(GateType.NOT, either)
    held = net.add(GateType.BUF, one)
    outputs = [nand, nor, xor, both, either, inverted, held, a1, zero]
    for i, signal in enumerate(outputs[:8]):
        net.set_output(f"out{i}", signal)
    net.set_output("carry", outputs[8])
    return net


def _netlist_core_plan(net):
    """A bare netlist core over ``net``, every opcode mapped to itself."""
    b = _Builder()
    out_names = [f"out{i}" for i in range(8)] + ["carry"]
    net_desc = _lower_netlist(b, net, {"a": 0, "b": 1, "op": 2}, out_names)
    header = np.zeros(HEADER_LEN, dtype=np.int64)
    header[H_COMP] = COMP_SIMPLEX
    header[H_CORE] = b.iadd([NODE_NETLIST, net_desc, 0, 0, 0, 8])
    header[H_VOTER] = -1
    header[H_BASE0] = 0
    header[H_SITES] = net.node_count
    header[H_IMAP] = b.iadd(range(8))
    header[H_SCRATCH] = net.node_count + INPUT_SCRATCH
    return KernelPlan(
        header=header,
        ipool=np.array(b.ipool, dtype=np.int64),
        bpool=np.zeros(1, dtype=np.uint8),
        site_count=net.node_count,
        scratch_size=int(header[H_SCRATCH]),
    )


def test_every_gate_kind_matches_the_netlist():
    net = _every_gate_netlist()
    plan = _netlist_core_plan(net)
    n = 256
    rng = np.random.default_rng(5)
    ops, a, b = (rng.integers(0, 8, size=n) for _ in range(3))
    masks = rng.integers(0, 1 << net.node_count, size=n)
    words = masks.astype(np.uint64)[:, None]
    want = []
    for r in range(n):
        bits = {"a0": a[r] & 1, "a1": (a[r] >> 1) & 1, "b0": b[r] & 1,
                "op0": ops[r] & 1}
        out = net.evaluate({k: int(v) for k, v in bits.items()}, int(masks[r]))
        want.append(
            sum(out[f"out{i}"] << i for i in range(8)) | out["carry"] << 8
        )
    engines = [BatchedEngine(plan)]
    if get_provider() is not None:
        engines.append(CompiledEngine(plan, get_provider()))
    for engine in engines:
        assert engine.bundles_words(ops, a, b, words).tolist() == want
    out = np.empty(n, dtype=np.int64)
    eval_batch(
        plan.header, plan.ipool, plan.bpool, ops, a, b, words.reshape(-1),
        n, 1, out, np.zeros(plan.scratch_size, dtype=np.uint8),
    )
    assert out.tolist() == want


def test_both_executors_run_one_plan():
    unit = build_alu("alusn")
    batched = build_engine(unit, "batched")
    assert isinstance(batched, BatchedEngine) and batched.tier == "batched"
    if get_provider() is None:
        pytest.skip("no C kernel")
    compiled = build_engine(unit, "compiled")
    assert isinstance(compiled, CompiledEngine) and compiled.tier == "compiled"
    for field in ("header", "ipool", "bpool"):
        np.testing.assert_array_equal(
            getattr(batched._plan, field), getattr(compiled._plan, field)
        )


@pytest.mark.parametrize("defective", [False, True], ids=["design", "part"])
@pytest.mark.parametrize("tier", ["batched", "compiled"])
class TestOperandShapes:
    """``ops``, ``a`` and ``b`` must be 1-D and of one length; a short
    operand array used to send the C kernel reading past its end."""

    @pytest.fixture
    def engine(self, tier, defective):
        unit = build_alu("alunn")
        if defective:
            unit = DefectiveUnit(
                unit,
                sample_defect_map(
                    unit.site_count, 0.05, np.random.default_rng(3)
                ),
            )
        engine = build_engine(unit, tier)
        if engine is None:
            pytest.skip("no C kernel")
        return engine

    @pytest.mark.parametrize("n", [2, 200_000])
    def test_short_operands_raise(self, engine, n):
        ops = np.zeros(n, dtype=np.int64)
        one = np.zeros(1, dtype=np.int64)
        words = np.zeros((n, engine.n_words), dtype=np.uint64)
        with pytest.raises(ValueError, match="1-D and of one length"):
            engine.bundles_words(ops, one, one, words)
        with pytest.raises(ValueError, match="1-D and of one length"):
            engine.values_words(ops, ops, ops[:-1], words)

    def test_operands_must_be_one_dimensional(self, engine):
        words = np.zeros((4, engine.n_words), dtype=np.uint64)
        grid = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="1-D and of one length"):
            engine.bundles_words(grid, grid, grid, words)
        with pytest.raises(ValueError, match="1-D and of one length"):
            engine.bundles_words(0, 0, 0, words[:1])
