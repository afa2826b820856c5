"""Tests for the command-line interface."""

import argparse
import hashlib

import pytest

from repro.alu.variants import variant_names
from repro.cli import (
    BACKEND_CHOICES,
    SCHEME_CHOICES,
    VARIANT_CHOICES,
    build_parser,
    main,
    _parse_kill,
)
from repro.kernels import BACKENDS
from repro.lut import coded

#: Out-of-domain input, one case list for both front doors: ``(argv,
#: the same job as a service request or None for a CLI-only flag,
#: message)``.  The CLI exits 2 with the message on stderr;
#: ``JobSpec.from_request`` raises ValueError with it.
OUT_OF_DOMAIN = [
    (["chaos", "--rates", "1.5"], ("chaos", {"rates": [1.5]}),
     "must be within [0, 1], got 1.5"),
    (["chaos", "--drop-rate", "-1"], ("chaos", {"drop_rate": -1}),
     "must be within [0, 1], got -1"),
    (["grid", "--fault-percent", "150"], ("grid", {"fault_percent": 150}),
     "must be within [0, 100], got 150"),
    (["grid", "--rows", "0"], ("grid", {"rows": 0}),
     "must be at least 1, got 0"),
    (["grid", "--scheme", "bogus"], ("grid", {"scheme": "bogus"}),
     "invalid choice: 'bogus'"),
    (["grid", "--seed", "-1"], ("grid", {"seed": -1}),
     "must be at least 0, got -1"),
    (["sweep", "--trials", "0"], ("sweep", {"trials": 0}),
     "must be at least 1, got 0"),
    (["lifecycle", "--processes", "transient", "--rate", "2"],
     ("lifecycle", {"processes": ["transient"], "rate": 2}),
     "must be within [0, 1), got 2"),
    (["lifecycle", "--rate", "0.002"], ("lifecycle", {"rate": 0.002}),
     "--rate requires --processes"),
    (["lifecycle", "--burst-length", "3"], ("lifecycle", {"burst_length": 3}),
     "--burst-length requires --processes"),
    (["sweep", "--deadline", "0"], None, "must be greater than 0, got 0"),
    (["sweep", "--checkpoint-chunk-size", "0"], None,
     "must be at least 1, got 0"),
    (["yield", "--parts", "0"], None, "--parts: must be at least 1"),
    (["yield", "--parts", "two"], None, "--parts: not an integer"),
    (["yield", "--density", "1.5"], None, "--density: must be within [0, 1]"),
    (["yield", "--density", "-0.1"], None,
     "--density: must be within [0, 1]"),
    (["yield", "--variants", "nosuch"], None, "--variants: invalid choice"),
    (["yield", "--seed", "-1"], None, "--seed: must be at least 0, got -1"),
    (["analyze", "--target", "150"], None,
     "--target: must be within (0, 100], got 150"),
    (["analyze", "--target", "0"], None,
     "--target: must be within (0, 100], got 0"),
    (["analyze", "--fault-percent", "-5"], None,
     "--fault-percent: must be within [0, 100], got -5"),
    (["analyze", "--threshold", "-1"], None,
     "--threshold: must be at least 0, got -1"),
    (["chaos-exec", "--timeout", "0"], None,
     "--timeout: must be greater than 0, got 0"),
    (["chaos-exec", "--seed", "-1"], None,
     "--seed: must be at least 0, got -1"),
    (["serve", "--state-dir", "d", "--workers", "0"], None,
     "--workers: must be at least 1, got 0"),
    (["serve", "--state-dir", "d", "--port", "70000"], None,
     "--port: must be within [0, 65535], got 70000"),
    (["serve", "--state-dir", "d", "--chunk-size", "0"], None,
     "--chunk-size: must be at least 1, got 0"),
    (["serve", "--state-dir", "d", "--chunk-timeout", "0"], None,
     "--chunk-timeout: must be greater than 0, got 0"),
    (["serve", "--state-dir", "d", "--default-deadline", "0"], None,
     "--default-deadline: must be greater than 0, got 0"),
]


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
        assert set(SCHEME_CHOICES) == (
            {"none"} | coded._BLOCKED_SCHEMES | set(coded._REPLICATED_LAYOUTS)
        )

    @pytest.mark.parametrize(
        "argv, _job, message", OUT_OF_DOMAIN,
        ids=[" ".join(case[0]) for case in OUT_OF_DOMAIN],
    )
    def test_bad_input_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, argv, _job, message
    ):
        monkeypatch.chdir(tmp_path)  # a usage error writes no state
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_default_taxonomy_without_processes(self, capsys):
        argv = ["lifecycle", "--jobs", "1", "--instructions", "8",
                "--rows", "2", "--cols", "2"]
        assert main(argv) == 0
        assert "transient(rate=0.002)" in capsys.readouterr().out

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

    @pytest.mark.parametrize("argv", [
        ["bench"], ["bench", "run", "--smoke"],
        ["bench", "compare", "a", "b"],
    ])
    def test_bench_command_is_gone(self, capsys, argv):
        """The bench scripts run as plain pytest; there is no harness
        subcommand to reach them through."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

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


#: sha256 of every parser's help text at ``COLUMNS=80`` (the same on
#: Python 3.10, 3.11 and 3.12), keyed by the subcommand path.  Captured
#: when each command still declared its flags by hand; the parameter
#: table must reproduce them byte for byte.
HELP_SHA256 = {
    "": "17691faf0856cfc0ec7949f791ba1e62d150c3a5b861a02ece1d4ebb63ceb039",
    "table1": "af93ecb3b85459ecc44992e0b3afe90d2ab5ae048a106591bf99a22606559994",
    "table2": "2b0ecbc53cdd80d8ec3c266d2637b4da0042deae2f9458a0fe2a6730095cd4e4",
    "area": "4dfd91c0bf13d7cf3f56e7f0df51f4b519dfd53d355ad92b87c538a028979892",
    "fit": "72351a42709f93894c43adab2b101b7e004615da52d145f2fccefb46b50bbe02",
    "describe": "c141d2de918c446e0e7a87b7ccca0a1c098f49622203a80b091fd5d09ba2806b",
    "sweep": "0a4a3c3e19ef49816d32bcefe04c08acdbec49e5adfb05c02f59bcc9f0d2a1a6",
    "grid": "ed2eb0fb926372fb371ccacd7acc61ac3dbf7378059d29aa2c3f97515472abec",
    "yield": "0512c90ea920465a89f9a28fa1a0502b8809ccba61cbb1bc813c6173d80ac84e",
    "analyze": "f6b9caa606835d2f047bc400c6c7f379b7f2ebcb4066bace786f44f38f986612",
    "chaos": "42adcc2fd24118e78a0199f110375b86a99bafa3171e6f9b1376cc61197f1074",
    "chaos-exec": "3097e76b4142ea9681fc6d42a0bfcd1155b0a2550ca6b4b9f4d72a1cd2dbcda4",
    "serve": "ec82e3b0be167c322269da41b7ea2991bd95e278efcf6f08d40730084cc6bb27",
    "lifecycle": "ad86da9f5b7856f9b3fb966b4d45a66aac51c05ac27388cb1783f5e55143a065",
    "replay": "1032f91cde8cc904d28dc4cfe7cf311269c7ffc03ec1333f5f25cb8304d18c94",
    "report": "57bcc0fe974bb3273e20e971ac8c1b2a6f6455c1c48c4287fe714bee0eb247ac",
}


def _all_parsers(parser, path=""):
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _all_parsers(sub, f"{path} {name}".strip())


def test_every_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    digests = {
        path: hashlib.sha256(parser.format_help().encode()).hexdigest()
        for path, parser in _all_parsers(build_parser())
    }
    assert digests == HELP_SHA256
