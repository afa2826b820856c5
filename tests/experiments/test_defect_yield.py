"""Tests for the manufacturing-yield experiment."""

import pytest

from repro.experiments import run_all
from repro.experiments.defect_yield import (
    functional_test,
    manufacture,
    yield_at,
    yield_sweep,
    yield_table_text,
)
from repro.alu.variants import build_alu
from repro.faults.defects import DefectMap, DefectiveUnit
from repro.kernels import BACKENDS


class TestFunctionalTest:
    def test_pristine_part_passes(self):
        for name in ("alunn", "aluns", "aluncmos"):
            alu = build_alu(name)
            part = DefectiveUnit(alu, DefectMap.pristine(alu.site_count))
            assert functional_test(part)

    def test_observable_defect_fails(self):
        alu = build_alu("alunn")
        # Stick the XOR(0,0) entry wrong: the (0,0) test vector catches it.
        part = DefectiveUnit(
            alu, DefectMap(alu.site_count, stuck0=0, stuck1=1 << 16)
        )
        assert not functional_test(part)


class TestManufacture:
    def test_part_count(self):
        parts = manufacture("alunn", 0.001, 5, seed=0)
        assert len(parts) == 5

    def test_parts_have_distinct_defects(self):
        parts = manufacture("alunn", 0.01, 6, seed=0)
        maps = {(p.defects.stuck0, p.defects.stuck1) for p in parts}
        assert len(maps) > 1

    def test_deterministic(self):
        a = manufacture("alunn", 0.01, 3, seed=5)
        b = manufacture("alunn", 0.01, 3, seed=5)
        assert [(p.defects.stuck0, p.defects.stuck1) for p in a] == [
            (p.defects.stuck0, p.defects.stuck1) for p in b
        ]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            manufacture("alunn", 0.01, 0)


class TestYield:
    def test_zero_density_perfect(self):
        point = yield_at("alunn", 0.0, n_parts=3, seed=0)
        assert point.perfect_yield == 1.0
        assert point.mean_accuracy == 100.0

    def test_tmr_outyields_uncoded(self):
        """The recursive-masking claim, in yield terms: at the same
        defect density, triplicated-string parts pass functional test
        far more often."""
        density = 2e-3
        uncoded = yield_at("alunn", density, n_parts=12, seed=3)
        tmr = yield_at("aluns", density, n_parts=12, seed=3)
        assert tmr.perfect_yield >= uncoded.perfect_yield

    def test_degradation_graceful_for_tmr(self):
        point = yield_at("aluns", 5e-3, n_parts=8, seed=4)
        assert point.mean_accuracy >= 99.0

    def test_sweep_and_render(self):
        points = yield_sweep(
            variants=("alunn",), densities=(1e-3,), n_parts=3, seed=0
        )
        text = yield_table_text(points)
        assert "alunn" in text
        assert "perfect yield" in text

    @pytest.mark.parametrize("variant", ["alunn", "aluncmos"])
    def test_every_backend_gives_the_same_point(self, kernel_provider, variant):
        """The tier is a speed knob only: scalar, batched, compiled and
        auto yield points are equal, provider live or dead."""
        points = [
            yield_at(variant, 5e-3, n_parts=4, seed=1, backend=backend)
            for backend in BACKENDS
        ]
        assert all(point == points[0] for point in points)

    def test_any_defect_probability(self):
        point = yield_at("alunn", 1e-3, n_parts=2, seed=0)
        # 512 sites at 1e-3: P(any defect) ~ 40%.
        assert 0.3 < point.any_defect_probability < 0.5


#: ``run_all._yield_section(quick=True, seed=2004)`` as the scalar tier
#: rendered it, before the sweep moved to the batched tier.
YIELD_SECTION_2004 = (
    "ALU       defect density  perfect yield  accuracy (defects only)  accuracy (+1% transients)\n"
    "--------  --------------  -------------  -----------------------  -------------------------\n"
    "aluncmos  0.0005          100%           100.0                    34.1\n"
    "aluncmos  0.002           67%            75.0                     27.1\n"
    "aluncmos  0.005           50%            66.7                     24.9\n"
    "alunn     0.0005          83%            100.0                    88.8\n"
    "alunn     0.002           67%            100.0                    88.8\n"
    "alunn     0.005           17%            93.6                     83.6\n"
    "aluns     0.0005          100%           100.0                    100.0\n"
    "aluns     0.002           100%           100.0                    100.0\n"
    "aluns     0.005           100%           100.0                    100.0"
)


class TestReportSection:
    def test_quick_section_pinned(self):
        assert run_all._yield_section(quick=True, seed=2004) == YIELD_SECTION_2004
