"""Unit tests for hierarchy introspection and area accounting."""

import hashlib

import pytest

from repro.alu.redundancy import SpaceRedundantALU
from repro.alu.reference import ReferenceALU
from repro.alu.variants import build_alu
from repro.alu.voters import make_voter
from repro.core.box import FaultToleranceLevel
from repro.core.hierarchy import area_overhead, describe_unit, render_tree
from tests.kernels.specs import GRID

#: sha256 of ``render_tree(describe_unit(spec.build()))`` for every unit
#: on the kernel support-set grid, pinned from the per-wrapper
#: ``describe_unit`` that predates the single module box.
DESCRIPTION_DIGESTS = {
    "aluncmos": "a83c1c4216194431ed56eac2c654978d044cf48eb30b61419f188d68befe2f87",
    "alunh": "f56dd53e3ab90cf50065a926673d7c759278d93c4a49e0358cdf973807f616e0",
    "alunn": "2f208e0fda5aad3a3c6011570aa72dd2f872b660ba50952281d4714a6c3747ea",
    "aluns": "ff1efe2fca7a6581c823582419ef0683dadbc26be3e08fce438b0cd89482bb6e",
    "aluscmos": "e7d48dc7b00a9bfc80399881a0295ef3815ffefed6c53a979809d270927c3d7c",
    "alush": "c83e6c79d5373735bedc647eb478da9cc9267ecf3051d182e254c269e0895022",
    "alusn": "691dcfe984dc6a87e118461e537906762255d9ab16b4233e683adf0267c892b0",
    "aluss": "a35952efafa0bbaa6ea665c5ac0d85d425e2be13c6873d44556527d9732c4458",
    "alutcmos": "9ae11ea0fb1e3a34e09902fa5e93bcdaa0430d562085be076ccdd3c8a5e3bf45",
    "aluth": "4902449312d8b3f888678d56b0fe4948f4a1feee4ebcd081f1b8c07a99d119f7",
    "alutn": "7798cd529d19454fb97a4e8ffa5829934ef5285597bd1546b560d2091adf4255",
    "aluts": "5e938822208084e423dd64bb66421eed5516b9a928f4ba3d1179790b9db1bc02",
    "simplex-none": "9d44664a17c43ad9d8cabba3e2f3e0957d273b94ad933a67228dae853820e147",
    "simplex-tmr": "69cc77dd8f5d14693e38163fe3dc4daca43aa991634fbb8529dc1eba6e4a5a61",
    "simplex-5mr": "dd3a57f4a44a20e0506b21dc6bf197a0526b2bc50b076be1febee0a2be079f82",
    "simplex-7mr": "faddd1319d90e9f89188823deefe0e9fb01cdb359a68faba8952c8ab07558064",
    "simplex-hamming": "8dba8cfdc00d0a1ad12913a9bf0c74e97df7b447e9197a8130eae47306fcf1f3",
    "simplex-hamming-sec": "57d41fcf4b7039a4f9816849838cf3c636555f79400b4b1a7769ee61db91eb9b",
    "simplex-hamming-fp": "a1055ea8f3ef54574da58a2ee9c65938e7eee1af92bec4d01b05b93d344b6775",
    "simplex-hsiao": "f643bd4e8549a3a75a9b4a3e34fbdd455b2c872e64e14209ffe0387608698e0e",
    "simplex-parity": "1c208ea95a0c610ca65df9bc5d67e245af7354ca511ed6b839ab82f5f30b11f1",
    "simplex-hamming-gate": "d789b8ee16f9ba748aa0524ce57104681b4a1d0049f72f5b7d56b9ead6ca3e47",
    "simplex-hamming-block4": "1fbead24ed8019b7e0349a939be0285ddaef303a51410369239be4254907aa82",
    "simplex-hamming-block8": "5fd258661408a2c635013edbda007315e0314b3dfa0b47b0a6b3d4e4530c1c9d",
    "simplex-hamming-sec-block4": "bec13ebed70fb2edff9ca98339dff462b725a5d8f24cc6654c195397f18384e5",
    "simplex-hamming-sec-block8": "8fda9a487273f3cabbf453dc363af8f18b30bef07b0639e667fc0beb5a935278",
    "simplex-hamming-fp-block4": "a32d429c5bf0aec2efa3a9dec13614144cbab88011ed192c7def6894596ca532",
    "simplex-hamming-fp-block8": "1db75a83d92498f72897db7f517a13ea3c4115e6e53e615551b721b691e2a2a8",
    "simplex-hsiao-block4": "cf585b8f12d277574152c97822d9dea63381085d967f9e4c707d71c481b79b1c",
    "simplex-hsiao-block8": "5403bf64bf7329e42328b6850993657fb1d684fdbd8daafefccfb8687dbecb62",
    "space-tmr-voter-tmr": "923aec576a715ceb8d3f0aaae38734b0b9393558781e4cadc32ca35c6644d2b6",
    "space-tmr-voter-none": "b6a6891ad9bed0447aba1c96ffbb0009a3001d0a1b8918fcecb58a74c00ad213",
    "space-tmr-voter-hamming": "04a37550716bbabb89810f71f3604625a057fa50f2dda7680098201e426c3d8f",
    "space-tmr-voter-cmos": "f65c8aab945f9847036fee7fe24580e0241b6c602001ab40809e34a8c342f7b7",
}


class TestDescribeUnit:
    def test_simplex_nanobox(self):
        box = describe_unit(build_alu("alunn"))
        assert box.level is FaultToleranceLevel.MODULE
        assert box.technique == "none"
        assert box.sites == 512
        assert box.leaf_count() == 16  # the sixteen LUTs

    def test_space_redundant(self):
        box = describe_unit(build_alu("aluss"))
        assert box.technique == "space-redundancy"
        assert box.sites == 5040
        names = [c.name for c in box.children]
        assert any("copy0" in n for n in names)
        assert any("voter" in n for n in names)

    def test_time_redundant_has_registers(self):
        box = describe_unit(build_alu("aluts"))
        assert box.technique == "time-redundancy"
        registers = [
            c for c in box.children if "result_registers" in c.name
        ]
        assert len(registers) == 1
        assert registers[0].sites == 27

    def test_cmos_core_is_opaque_leaf(self):
        box = describe_unit(build_alu("aluncmos"))
        core = box.children[0]
        assert core.technique == "cmos-gates"
        assert not core.children

    def test_site_totals_consistent(self):
        for name in ("alunn", "alunh", "aluss", "alutcmos"):
            unit = build_alu(name)
            box = describe_unit(unit)
            assert box.sites == unit.site_count

    def test_reference_alu(self):
        box = describe_unit(ReferenceALU())
        assert box.sites == 0
        assert box.technique == "oracle"

    def test_custom_name(self):
        assert describe_unit(build_alu("alunn"), name="cellA").name == "cellA"


class TestDescriptionDigests:
    @pytest.mark.parametrize("name,spec", GRID, ids=[n for n, _ in GRID])
    def test_rendered_tree_is_pinned(self, name, spec):
        text = render_tree(describe_unit(spec.build()))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == DESCRIPTION_DIGESTS[name]

    def test_digest_table_covers_the_grid(self):
        assert set(DESCRIPTION_DIGESTS) == {name for name, _ in GRID}


class TestNestedBox:
    """A box whose core is a box: three ``aluss`` units behind a voter."""

    @pytest.fixture(scope="class")
    def nested(self):
        return SpaceRedundantALU(lambda: build_alu("aluss"), make_voter("tmr"))

    def test_inner_box_described_under_each_copy(self, nested):
        box = describe_unit(nested)
        assert box.sites == nested.site_count == 3 * 5040 + 432
        copies = box.children[:3]
        for i, copy in enumerate(copies):
            assert copy.name == f"space_redundant.copy{i}"
            assert copy.technique == "space-redundancy"
            assert copy.sites == 5040
            assert [c.name for c in copy.children] == [
                f"space_redundant.copy{i}.{seg}"
                for seg in ("copy0", "copy1", "copy2", "voter")
            ]
        assert "opaque" not in render_tree(box)

    def test_nested_box_does_not_lower(self, nested):
        from repro.kernels.plan import build_plan

        assert build_plan(nested) is None

    def test_auto_backend_matches_scalar(self, nested):
        from repro.alu.reference import reference_compute
        from repro.faults.campaign import FaultCampaign
        from repro.faults.mask import ExactFractionMask

        instructions = [
            (op, a, b, reference_compute(op, a, b).value)
            for op, a, b in ((0, 3, 5), (1, 200, 100), (2, 0xAA, 0x55),
                             (7, 17, 4))
        ]
        results = [
            FaultCampaign(nested, ExactFractionMask(0.05), seed=7)
            .run_trials(instructions, 2, backend=backend)
            for backend in ("auto", "scalar")
        ]
        assert results[0] == results[1]
        assert results[0].total_injected_faults > 0


class TestRenderTree:
    def test_contains_key_lines(self):
        text = render_tree(describe_unit(build_alu("aluts")))
        assert "time-redundancy" in text
        assert "sites=5067" in text
        assert "16 x tmr leaf boxes" in text

    def test_leaf_render(self):
        from repro.core.box import NanoBox

        text = render_tree(
            NanoBox("solo", FaultToleranceLevel.BIT, "none", 4)
        )
        assert text == "solo  [bit/none]  sites=4"


class TestAreaOverhead:
    def test_paper_headline(self):
        overhead = area_overhead(build_alu("aluss"), build_alu("alunn"))
        assert overhead == pytest.approx(5040 / 512)
        assert 9.0 < overhead < 10.0  # "on the order of 9x"

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            area_overhead(build_alu("alunn"), ReferenceALU())
