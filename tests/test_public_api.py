"""Public-API surface and end-to-end integration tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_exports_listed_by_dir(self):
        assert set(repro.__all__) <= set(dir(repro))

    @pytest.mark.parametrize("statement", ["import repro", "import repro.cli"])
    def test_package_root_loads_no_subsystem(self, statement):
        """The root exports lazily: importing it (or the CLI module) loads
        no ALU, fault or grid code until a name is used."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        code = (
            f"{statement}\n"
            "import sys\n"
            "print(' '.join(sorted(m for m in sys.modules"
            " if m.startswith('repro'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "repro" in loaded
        for package in ("repro.alu", "repro.faults", "repro.grid"):
            assert not any(
                m == package or m.startswith(package + ".") for m in loaded
            ), loaded

    @pytest.mark.parametrize(
        "statement",
        [
            "from repro.cli import build_parser; build_parser()",
            "from repro.cli import main; main(['table1'])",
            "from repro.cli import main\ntry:\n    main(['--help'])\n"
            "except SystemExit:\n    pass",
        ],
        ids=["build_parser", "table1", "help"],
    )
    def test_cli_start_up_loads_no_numeric_stack(self, statement):
        """The parser's choices are literal and Table 1 is static text, so
        none of these loads NumPy, the ALU, fault or kernel code, or the
        campaign service."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        code = (
            f"{statement}\n"
            "import sys\n"
            "print('MODULES', ' '.join(sorted(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split("MODULES", 1)[1].split()
        for package in (
            "numpy", "repro.alu", "repro.faults", "repro.kernels",
            "repro.service",
        ):
            assert not any(
                m == package or m.startswith(package + ".") for m in loaded
            ), (package, loaded)

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet(self):
        """The docstring example must work verbatim."""
        from repro import ExactFractionMask, FaultCampaign, build_alu
        from repro.workloads import gradient, paper_workloads

        alu = build_alu("aluss")
        campaign = FaultCampaign(alu, ExactFractionMask(0.03), seed=0)
        result = campaign.run_workload_suite(paper_workloads(gradient()), 5)
        assert 90.0 <= result.percent_correct <= 100.0


class TestEndToEndSingleCell:
    """The paper's core experiment, through the public API."""

    def test_paper_evaluation_pipeline(self):
        from repro import ExactFractionMask, FaultCampaign, build_alu
        from repro.workloads import gradient, paper_workloads

        streams = paper_workloads(gradient(8, 8))
        scores = {}
        for variant in ("aluncmos", "alunh", "alunn", "aluns"):
            campaign = FaultCampaign(
                build_alu(variant), ExactFractionMask(0.03), seed=77
            )
            scores[variant] = campaign.run_workload_suite(
                streams, trials_per_workload=5
            ).percent_correct
        # Figure 7's ranking at 3% injected faults.
        assert scores["aluns"] > scores["alunn"] > scores["alunh"] \
            > scores["aluncmos"]


class TestEndToEndGrid:
    """Full-system integration: image in, image out, with failures."""

    def test_image_pipeline_under_duress(self):
        from repro import ExactFractionMask, GridSimulator
        from repro.workloads import gradient, reverse_video

        sim = GridSimulator(
            rows=3,
            cols=3,
            alu_scheme="tmr",
            alu_fault_policy=ExactFractionMask(0.01),
            kill_schedule={50: [(1, 1)]},
            seed=123,
        )
        outcome = sim.run_image_job(gradient(8, 8), reverse_video())
        assert (1, 1) in outcome.stats.failed_cells
        assert outcome.pixel_accuracy >= 0.9

    def test_hierarchy_description_of_grid_cell_alu(self):
        from repro import NanoBoxALU, describe_unit, render_tree

        box = describe_unit(NanoBoxALU(scheme="tmr"))
        assert box.sites == 1536
        assert "tmr" in render_tree(box)
