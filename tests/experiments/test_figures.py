"""Tests regenerating Figures 7-9 (reduced sweeps; full runs live in the
benchmarks and EXPERIMENTS.md)."""

import pytest

from repro.experiments.figures import (
    FIGURE_VARIANTS,
    PAPER_FAULT_PERCENTAGES,
    figure7,
    figure8,
    figure9,
    run_figure,
    run_figure_resilient,
    sweep_variant,
)
from repro.kernels import BACKENDS
from repro.perf import ResilientRuntime

#: A cheap subset of the paper's 18 percentages for CI-speed sweeps.
QUICK = (0, 1, 3, 9)


@pytest.fixture(scope="module")
def fig7():
    return figure7(fault_percents=QUICK, trials_per_workload=3, seed=99)


class TestSweepMechanics:
    def test_paper_has_18_percentages(self):
        assert len(PAPER_FAULT_PERCENTAGES) == 18
        assert PAPER_FAULT_PERCENTAGES[0] == 0
        assert PAPER_FAULT_PERCENTAGES[-1] == 75

    def test_each_figure_has_four_variants(self):
        for variants in FIGURE_VARIANTS.values():
            assert len(variants) == 4

    def test_sweep_points_complete(self):
        points = sweep_variant("alunn", fault_percents=QUICK,
                               trials_per_workload=2)
        assert len(points) == len(QUICK)
        assert all(p.samples == 4 for p in points)  # 2 trials x 2 workloads

    def test_zero_percent_always_perfect(self):
        points = sweep_variant("aluncmos", fault_percents=(0,),
                               trials_per_workload=2)
        assert points[0].percent_correct == 100.0
        assert points[0].stddev == 0.0
        assert points[0].fit_rate == 0.0

    def test_fit_rates_attached(self):
        points = sweep_variant("aluss", fault_percents=(1,),
                               trials_per_workload=1)
        assert points[0].fit_rate == pytest.approx(3.6e23, rel=0.02)

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("figure10")

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            sweep_variant("alunn", trials_per_workload=0)


class TestCheckpointKey:
    def test_run_key_is_the_same_for_every_backend(self, tmp_path):
        """Every tier gives identical results, so the tier is not part of
        the checkpoint run key: a sweep checkpointed on one tier resumes
        on any other."""
        runs = [
            run_figure_resilient(
                "figure7",
                ResilientRuntime(checkpoint_dir=tmp_path, resume=True),
                fault_percents=(0, 3),
                trials_per_workload=1,
                seed=5,
                backend=backend,
            )
            for backend in BACKENDS
        ]
        assert len({run.outcome.run_key for run in runs}) == 1
        first, *rest = runs
        assert first.outcome.run_key is not None
        assert first.outcome.computed_chunks == first.outcome.chunks
        for run in rest:
            assert run.outcome.reused_chunks == run.outcome.chunks
            assert run.figure.to_text() == first.figure.to_text()


class TestFigure7Shape(object):
    """The qualitative claims of paper Section 5 about Figure 7."""

    def test_series_structure(self, fig7):
        series = fig7.series()
        assert set(series) == set(FIGURE_VARIANTS["figure7"])
        assert all(len(s) == len(QUICK) for s in series.values())

    def test_tmr_dominates(self, fig7):
        series = fig7.series()
        for i in range(1, len(QUICK)):
            assert series["aluns"][i] >= series["alunn"][i]
            assert series["aluns"][i] >= series["alunh"][i]
            assert series["aluns"][i] >= series["aluncmos"][i]

    def test_nocode_beats_hamming_everywhere(self, fig7):
        """alunn was better than alunh across all fault percentages."""
        series = fig7.series()
        for i in range(1, len(QUICK)):
            assert series["alunn"][i] > series["alunh"][i]

    def test_cmos_collapses_fastest(self, fig7):
        series = fig7.series()
        # ~39% at 1% injected errors in the paper; allow generous margin.
        assert series["aluncmos"][QUICK.index(1)] < 55
        assert series["aluncmos"][QUICK.index(3)] < 20

    def test_tmr_holds_98_at_low_density(self, fig7):
        series = fig7.series()
        assert series["aluns"][QUICK.index(1)] >= 98.0

    def test_point_lookup(self, fig7):
        point = fig7.point("aluns", 1)
        assert point.variant == "aluns"
        with pytest.raises(KeyError):
            fig7.point("aluns", 42)

    def test_text_rendering(self, fig7):
        text = fig7.to_text()
        assert "No Module-Level Fault Tolerance" in text
        assert "aluns" in text


class TestFigures8And9Similarity:
    """Section 5: module-level redundancy adds almost nothing at these
    densities -- Figures 7, 8, 9 look nearly identical per bit technique."""

    def test_module_redundancy_changes_little_for_tmr_bits(self):
        f7 = sweep_variant("aluns", fault_percents=(2,), trials_per_workload=5)
        f8 = sweep_variant("aluts", fault_percents=(2,), trials_per_workload=5)
        f9 = sweep_variant("aluss", fault_percents=(2,), trials_per_workload=5)
        values = [f7[0].percent_correct, f8[0].percent_correct,
                  f9[0].percent_correct]
        assert max(values) - min(values) < 6.0

    def test_time_and_space_nearly_identical(self):
        fig8 = figure8(fault_percents=(3,), trials_per_workload=5, seed=1)
        fig9 = figure9(fault_percents=(3,), trials_per_workload=5, seed=1)
        t = fig8.point("aluts", 3).percent_correct
        s = fig9.point("aluss", 3).percent_correct
        assert abs(t - s) < 6.0


class TestSpreadDiscipline:
    def test_stddev_mostly_small(self, fig7):
        """Paper: stddev < 10 points for nearly every plotted point."""
        small = sum(1 for p in fig7.points if p.stddev < 10.0)
        assert small >= len(fig7.points) * 0.7
        assert fig7.max_stddev() < 30.0
