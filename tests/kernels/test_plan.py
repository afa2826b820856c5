"""Plan lowering: which units lower, and what the flat form holds.

A :class:`~repro.kernels.plan.KernelPlan` is lowered straight from the
scalar units and run by both executors, so its bytes are the contract:
every plan on the support-set grid is pinned by digest, and the support
set itself -- every spec except the ``parity`` and ``hamming-gate``
decoders -- is pinned explicitly.
"""

import hashlib

import numpy as np
import pytest

from repro.alu.cmos import CMOSALU
from repro.alu.nanobox import NanoBoxALU
from repro.alu.variants import build_alu, variant_names
from repro.faults.defects import DefectiveUnit, sample_defect_map
from repro.kernels.plan import HEADER_LEN, H_SITES, build_plan
from repro.perf.spec import ALUSpec
from tests.kernels.specs import GRID, UNLOWERED_SCHEMES

#: sha256 of each grid plan's ``(header, ipool, bpool, site_count,
#: scratch_size)``, pinned from the lowering that read the retired
#: batched object graph.  ``None``: the spec has no plan.
PLAN_DIGESTS = {
    "aluncmos": "4d3f22a3a79a1d69f25b49f6e09488c7c4ea7be54f3e11c4fb839b5b17a9e2b2",
    "alunh": "5e2524fa3d9c0bc8d0a3ff976428217a7de69af0426eb6a90b14a98ff27a57b7",
    "alunn": "c702f4e2737e10176075d98ea6ec860aa3fe190b8f6eb372b26e5f49e8b06aba",
    "aluns": "09babc05868b655128108c85ec7627d0aea927c012b042ff24f010760bc97b5b",
    "aluscmos": "6a85001fc3271707daf9cf6259f5d18a7719fdc77dd8e11691813a2c73fbe8e3",
    "alush": "b9b2968179d35c48229124095482a52b941d2b78d6d293e635bcb05e7b6a55b7",
    "alusn": "6a3461820f31b2612014f4612d5d799358297cfe76c3467c743e637e8360e15a",
    "aluss": "60d2837d636b1bc38dbac6001071dad5605291858641d65bb8d06efc27254d07",
    "alutcmos": "02e045172b78a5297720226061e48d198009c62efa5391c11b7a2cf06dd3af80",
    "aluth": "bb52821f79af43a06a31f48f28a8df270e72de0b0932fb2082d8bb1a0da9bb53",
    "alutn": "7c4ff43f4bd8a28f2043c6c9fdbc5fc44ef7a5c13fff320736a159239f4f455c",
    "aluts": "3c60d3aa7db6aba89ab9b45fecd6004774e868065536880a216a3b60e15bdc7c",
    "simplex-none": "c702f4e2737e10176075d98ea6ec860aa3fe190b8f6eb372b26e5f49e8b06aba",
    "simplex-tmr": "09babc05868b655128108c85ec7627d0aea927c012b042ff24f010760bc97b5b",
    "simplex-5mr": "4f72c9a1c8a6793d3ff723d72f50176fd58052fe6ad1b965a8661914eb3d6155",
    "simplex-7mr": "d6d3faffb9e5e3d13390ee4948c02ecd971b6c6eaa32eb7be5cb5b9781be3f6c",
    "simplex-hamming": "5e2524fa3d9c0bc8d0a3ff976428217a7de69af0426eb6a90b14a98ff27a57b7",
    "simplex-hamming-sec": "517ca9638bca250042d924863244ad340081877af6d022b0bd2d1ea6d95f4422",
    "simplex-hamming-fp": "9cb12323902eefaf2d9b1b410cfc34c7d2e990df36c0092d9b1dca29ae1b2aff",
    "simplex-hsiao": "76d354a697ede4b2352185a6a29e3cce0800daff8f4573e516aeb450ab5d9ed8",
    "simplex-parity": None,
    "simplex-hamming-gate": None,
    "simplex-hamming-block4": "a9a50a43b741d083bbeda19e7576493a001885a59abf994286fbf35b640c31dd",
    "simplex-hamming-block8": "b95cd974e1b70b14d0897078798a30a501216bc6f341b47454f74045e60cba9c",
    "simplex-hamming-sec-block4": "4ea73c9caecaf8086de1383f30a9b39fee1b337ce7a05379e4faa9982a36f1d7",
    "simplex-hamming-sec-block8": "09251e93263564ab3acd652ccb9e220e59d31ef93c6c07339a965a074c44cdb3",
    "simplex-hamming-fp-block4": "0ef88bf3e68c4e8f06e1db9bf13f56e0409b83150b123b85951977d0b300b485",
    "simplex-hamming-fp-block8": "13483d0ceef7971fe7c25f6131a75865df7a066825b3098447952f4fac143d9b",
    "simplex-hsiao-block4": "9adb307700a6a8de08394142122c62c7efbd956f89c7cb537d4bd6bb933e4929",
    "simplex-hsiao-block8": "814f7e47bc00287d54dee74888709daf86ae4595dadeefc77543a0af8e7f18b2",
    "space-tmr-voter-tmr": "60d2837d636b1bc38dbac6001071dad5605291858641d65bb8d06efc27254d07",
    "space-tmr-voter-none": "0e86981a54016dd8b452f85e87f83203c47565a9575d483d7f962567521dc792",
    "space-tmr-voter-hamming": "a75f8a4f6beb3f639f94f79f7d58f00c14f5f67b89e48e3443adc71c942dedc8",
    "space-tmr-voter-cmos": "babe26e38860a4f6f5ca5575cc9879baf2b1624ab8e1a04ff12f565e2115b70f",
}


def _digest(plan):
    if plan is None:
        return None
    h = hashlib.sha256()
    for array in (plan.header, plan.ipool, plan.bpool):
        h.update(array.dtype.str.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(f"{plan.site_count},{plan.scratch_size}".encode())
    return h.hexdigest()


class TestLowering:
    @pytest.mark.parametrize("variant", variant_names())
    def test_every_table2_variant_lowers(self, variant):
        unit = build_alu(variant)
        plan = build_plan(unit)
        assert plan is not None
        assert plan.site_count == unit.site_count
        assert plan.header.shape == (HEADER_LEN,)
        assert plan.header[H_SITES] == unit.site_count

    @pytest.mark.parametrize("name,spec", GRID, ids=[n for n, _ in GRID])
    def test_plan_bytes_are_pinned(self, name, spec):
        assert _digest(build_plan(spec.build())) == PLAN_DIGESTS[name]

    def test_digest_table_covers_the_grid(self):
        assert set(PLAN_DIGESTS) == {name for name, _ in GRID}

    @pytest.mark.parametrize("scheme", UNLOWERED_SCHEMES)
    def test_unsupported_decoder_semantics_return_none(self, scheme):
        """Units with no lowered form give None, never raise."""
        assert build_plan(ALUSpec.simplex(scheme).build()) is None

    def test_support_set(self):
        """Every grid spec lowers except the two unlowered decoders, for
        each design and for a defective part of it."""
        for _, spec in GRID:
            design = spec.build()
            rng = np.random.default_rng(design.site_count)
            part = DefectiveUnit(
                design, sample_defect_map(design.site_count, 0.05, rng)
            )
            supported = spec.scheme not in UNLOWERED_SCHEMES
            for unit in (design, part):
                assert (build_plan(unit) is not None) == supported, (spec, unit)

    @pytest.mark.parametrize("core", [NanoBoxALU, CMOSALU])
    def test_bare_core_lowers_as_zero_offset_simplex(self, core):
        unit = core()
        plan = build_plan(unit)
        assert plan is not None and plan.site_count == unit.site_count

    def test_plan_arrays_are_flat_and_typed(self):
        plan = build_plan(build_alu("alunn"))
        assert plan.header.dtype == np.int64
        assert plan.ipool.dtype == np.int64
        assert plan.bpool.dtype == np.uint8
        assert plan.header.ndim == plan.ipool.ndim == plan.bpool.ndim == 1
        assert plan.scratch_size >= 64  # netlist input window

    def test_plan_is_deterministic(self):
        a = build_plan(build_alu("aluss"))
        b = build_plan(build_alu("aluss"))
        np.testing.assert_array_equal(a.header, b.header)
        np.testing.assert_array_equal(a.ipool, b.ipool)
        np.testing.assert_array_equal(a.bpool, b.bpool)
