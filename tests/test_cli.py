"""Tests for the command-line interface."""

import pytest

from repro.alu.variants import variant_names
from repro.cli import (
    BACKEND_CHOICES,
    VARIANT_CHOICES,
    build_parser,
    main,
    _parse_kill,
)
from repro.kernels import BACKENDS


class TestStaticCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "XOR" in out and "010" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "aluss" in out and "5040" in out
        assert "MISMATCH" not in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        assert "9.84x" in capsys.readouterr().out

    def test_fit(self, capsys):
        assert main(["fit", "--variant", "aluss"]) == 0
        assert "5040 sites" in capsys.readouterr().out

    def test_describe(self, capsys):
        assert main(["describe", "aluts"]) == 0
        out = capsys.readouterr().out
        assert "time-redundancy" in out
        assert "5067" in out

    def test_describe_unknown_variant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["describe", "alunq"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_fit_unknown_variant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--variant", "alunq"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSweep:
    def test_quick_figure7(self, capsys):
        assert main(["sweep", "--figure", "7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "No Module-Level Fault Tolerance" in out
        assert "aluns" in out

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--figure", "10"])


class TestGrid:
    def test_fault_free_run(self, capsys):
        code = main([
            "grid", "--rows", "2", "--cols", "2",
            "--workload", "hue_shift", "--image-size", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pixel accuracy    : 100.0%" in out

    def test_kill_spec_parsing(self):
        assert _parse_kill("1,2@40") == (40, (1, 2))
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_kill("garbage")

    def test_run_with_kill_and_adaptive(self, capsys):
        code = main([
            "grid", "--rows", "3", "--cols", "3",
            "--kill", "1,1@30", "--adaptive", "--image-size", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "failed cells      : [(1, 1)]" in out

    def test_show_grid_includes_lifecycle_view(self, capsys):
        code = main([
            "grid", "--rows", "3", "--cols", "3",
            "--kill", "1,1@30", "--image-size", "4", "--show-grid",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lifecycle state" in out
        assert "retired 1" in out


class TestLifecycle:
    def test_lifecycle_sweep_runs(self, capsys):
        code = main([
            "lifecycle", "--processes", "intermittent",
            "--jobs", "2", "--instructions", "32",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Cell health lifecycle sweep" in out
        assert "goodput/kcyc" in out
        assert "self-healing" in out
        assert "permanent" in out

    def test_lifecycle_deterministic_output(self, capsys):
        argv = [
            "lifecycle", "--processes", "transient",
            "--jobs", "2", "--instructions", "32", "--seed", "5",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestObservabilityFlags:
    ARGV = [
        "lifecycle", "--processes", "transient",
        "--jobs", "2", "--instructions", "32", "--seed", "5",
    ]

    def test_metrics_and_trace_exports(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main(self.ARGV + [
            "--metrics", str(metrics_path),
            "--trace", str(trace_path),
            "--obs-report",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Observability report" in out
        snapshot = json.loads(metrics_path.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["control.jobs"] > 0
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert records
        assert all("kind" in r and "seq" in r for r in records)

    def test_report_shows_tape_scan_counters(self, capsys):
        """Temporal fault runs report how their fault streams were
        scanned, beside the mask draw counters."""
        assert main(self.ARGV + ["--obs-report"]) == 0
        out = capsys.readouterr().out
        assert "kernel.tape.native" in out or "kernel.tape.numpy" in out

    def test_observed_table_matches_bare(self, capsys, tmp_path):
        assert main(self.ARGV) == 0
        bare = capsys.readouterr().out
        assert main(self.ARGV + [
            "--metrics", str(tmp_path / "m.json")
        ]) == 0
        observed = capsys.readouterr().out
        # The experiment output is byte-identical; the flag only appends
        # its export confirmation afterwards.
        assert observed.startswith(bare)
        extra = observed[len(bare):].splitlines()
        assert all(line.startswith("wrote ") for line in extra)


class TestYield:
    def test_yield_table(self, capsys):
        code = main([
            "yield", "--variants", "alunn", "--density", "0.001",
            "--parts", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "perfect yield" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--parts", "0"], "--parts: must be at least 1"),
            (["--parts", "two"], "--parts: not an integer"),
            (["--density", "1.5"], "--density: must be within [0, 1]"),
            (["--density", "-0.1"], "--density: must be within [0, 1]"),
            (["--variants", "nosuch"], "--variants: invalid choice"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["yield", *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestAnalyze:
    def test_budgets_and_horizons(self, capsys):
        assert main(["analyze", "--target", "98", "--fault-percent", "1"]) == 0
        out = capsys.readouterr().out
        assert "FIT budget" in out
        assert "tmr" in out
        assert "survival horizon" in out


class TestReport:
    def test_quick_report_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        code = main(["report", "--quick", "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert "== Table 2 ==" in text
        assert "== Figure 9 ==" in text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_static_choices_mirror_their_sources(self):
        """The parser's literal choice tuples track the live vocabularies,
        order included (argparse lists them in usage errors)."""
        assert VARIANT_CHOICES == variant_names()
        assert BACKEND_CHOICES == BACKENDS

    def test_unknown_variant_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["describe", "alunq"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'alunq'" in err
        assert ", ".join(repr(n) for n in variant_names()) in err

    @pytest.mark.parametrize("argv", [["sweep", "--help"], ["table1"]])
    def test_bad_backend_env_is_a_usage_error(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "REPRO_BACKEND='bogus' is not a backend" in err
        assert all(repr(backend) in err for backend in BACKENDS)

    @pytest.mark.parametrize("command", ["grid", "chaos", "lifecycle"])
    def test_grid_engine_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--grid-engine", "dense"])
        assert exc.value.code == 2
        assert "--grid-engine" in capsys.readouterr().err

    def test_grid_engine_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_ENGINE", "bogus")
        assert not hasattr(build_parser().parse_args(["grid"]), "grid_engine")

    def test_backend_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batched")
        args = build_parser().parse_args(["sweep"])
        assert args.backend == "batched"
        monkeypatch.delenv("REPRO_BACKEND")
        for command in ("sweep", "grid", "chaos", "lifecycle"):
            assert build_parser().parse_args([command]).backend == "auto"
