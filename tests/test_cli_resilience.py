"""CLI-level crash-safety tests: checkpoints, resume, deadlines.

The contract under test: for every experiment-running subcommand, a
checkpointed run and a resumed run print stdout byte-identical to the
plain flag-free run (recovery accounting goes to stderr only), and an
expired ``--deadline`` yields a well-formed partial report with exit
status 3.
"""

import json
import re

import pytest

from repro.cli import EXIT_INCOMPLETE, main

SWEEP = ["sweep", "--quick", "--seed", "11"]
GRID = ["grid", "--rows", "2", "--cols", "2", "--image-size", "4",
        "--kill", "0,1@40", "--seed", "3"]
CHAOS = ["chaos", "--rates", "0", "0.003", "--instructions", "16",
         "--rows", "2", "--cols", "2"]
LIFECYCLE = ["lifecycle", "--jobs", "1", "--instructions", "16",
             "--rows", "2", "--cols", "2"]


def _run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestResumeByteIdentity:
    @pytest.mark.parametrize(
        "argv", (SWEEP, GRID, CHAOS, LIFECYCLE),
        ids=("sweep", "grid", "chaos", "lifecycle"),
    )
    def test_checkpoint_and_resume_match_plain_run(
        self, capsys, tmp_path, argv
    ):
        plain_status, plain_out, _ = _run(capsys, argv)
        ck = ["--checkpoint-dir", str(tmp_path / "ck")]
        first_status, first_out, first_err = _run(capsys, argv + ck)
        assert first_status == plain_status
        assert first_out == plain_out
        assert "computed" in first_err
        resumed_status, resumed_out, resumed_err = _run(
            capsys, argv + ck + ["--resume"]
        )
        assert resumed_status == plain_status
        assert resumed_out == plain_out
        assert "computed 0" in resumed_err  # everything came from disk

    def test_corrupt_checkpoint_quarantined_and_output_unchanged(
        self, capsys, tmp_path
    ):
        _, plain_out, _ = _run(capsys, SWEEP)
        ck = ["--checkpoint-dir", str(tmp_path / "ck")]
        _run(capsys, SWEEP + ck)
        records = sorted((tmp_path / "ck").glob("*/chunk_*.json"))
        assert records
        records[0].write_text(records[0].read_text()[:25])  # truncate
        status, out, err = _run(capsys, SWEEP + ck + ["--resume"])
        assert status == 0
        assert out == plain_out
        assert "quarantined 1 corrupt record(s)" in err
        assert list((tmp_path / "ck").glob("*/*.corrupt*"))


class TestDeadline:
    @pytest.mark.parametrize(
        "argv, partial_marker",
        (
            (SWEEP, "[partial]"),  # the figure's partial table
            (GRID, None),  # one task: nothing to show but the banner
            (CHAOS, "Link-fault chaos sweep"),
            (LIFECYCLE, "Cell health lifecycle sweep"),
        ),
        ids=("sweep", "grid", "chaos", "lifecycle"),
    )
    def test_expired_deadline_reports_explicit_partial(
        self, capsys, tmp_path, argv, partial_marker
    ):
        ck = ["--checkpoint-dir", str(tmp_path / "ck")]
        status, out, err = _run(capsys, argv + ck + ["--deadline", "0.000001"])
        assert status == EXIT_INCOMPLETE
        assert "INCOMPLETE" in out
        if partial_marker is not None:
            assert partial_marker in out
        assert "deadline hit" in err
        # The partial run is a valid launchpad: resume completes it.
        _, plain_out, plain_err = _run(capsys, argv)
        assert "checkpoint[" not in plain_err
        resumed_status, resumed_out, _ = _run(capsys, argv + ck + ["--resume"])
        assert resumed_status == 0
        assert resumed_out == plain_out


class TestFlagValidation:
    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit):
            main(SWEEP + ["--resume"])
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_plain_run_untouched_by_flag_machinery(self, capsys):
        """No resilience flag given: the pre-existing path, no stderr."""
        status, out, err = _run(capsys, SWEEP)
        assert status == 0
        assert "checkpoint[" not in err

    def test_checkpoint_json_export_still_works(self, capsys, tmp_path):
        out_json = tmp_path / "fig.json"
        status, _, _ = _run(
            capsys,
            SWEEP + ["--checkpoint-dir", str(tmp_path / "ck"),
                     "--json", str(out_json)],
        )
        assert status == 0
        assert json.loads(out_json.read_text())["name"] == "figure7"


class TestObservabilityIntegration:
    def test_checkpoint_counters_exported(self, capsys, tmp_path):
        ck = ["--checkpoint-dir", str(tmp_path / "ck")]
        metrics_path = tmp_path / "m1.json"
        _run(capsys, SWEEP + ck + ["--metrics", str(metrics_path)])
        counters = json.loads(metrics_path.read_text())["counters"]
        assert counters["checkpoint.writes"] > 0
        assert counters["resilient.chunks_computed"] > 0
        metrics_path2 = tmp_path / "m2.json"
        _run(
            capsys, SWEEP + ck + ["--resume", "--metrics", str(metrics_path2)]
        )
        counters2 = json.loads(metrics_path2.read_text())["counters"]
        assert counters2["checkpoint.hits"] > 0
        assert counters2["resilient.chunks_reused"] > 0


#: Each command's checkpoint run key at its defaults, captured before
#: the plain and checkpointed paths merged: a service restarted on new
#: code must still find the checkpoints an old child wrote.
DEFAULT_RUN_KEYS = {
    "sweep": "79736ca5eaa44e1d",
    "grid": "0b45e186ab47d304",
    "chaos": "dc46a375c97e9b4b",
    "lifecycle": "8072ed365c749863",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_RUN_KEYS))
def test_default_run_key_is_pinned(capsys, tmp_path, command):
    # An already-expired deadline schedules no chunk, so the run only
    # derives its key.
    status, _, err = _run(capsys, [
        command, "--checkpoint-dir", str(tmp_path), "--deadline", "0.000001",
    ])
    assert status == EXIT_INCOMPLETE
    assert re.search(r"checkpoint\[(\w+)\]", err).group(1) == (
        DEFAULT_RUN_KEYS[command]
    )
