"""CLI tests for manifests, replay, and chrome traces.

These run the real subcommands in-process via ``main(argv)`` -- the same
entry point the console script uses -- with the smallest workloads each
command accepts, so the replay contract ("byte-for-byte or exit 1") is
tested end to end on every experiment family that records manifests.
"""

import json

import pytest

from repro.cli import main
from repro.obs.manifest import load_manifest

#: Smallest-workload argv for every manifest-recording command family.
REPLAYABLE = {
    "sweep": ["sweep", "--quick"],
    "grid": ["grid", "--rows", "2", "--cols", "2", "--image-size", "4"],
    "chaos": [
        "chaos", "--rates", "0.0", "0.003", "--rounds", "1",
        "--instructions", "8",
    ],
    "lifecycle": [
        "lifecycle", "--jobs", "1", "--instructions", "16",
        "--rows", "2", "--cols", "2",
    ],
}


class TestManifestRecording:
    @pytest.mark.parametrize("command", sorted(REPLAYABLE))
    def test_manifest_records_argv_digest_and_provenance(
        self, command, tmp_path, capsys
    ):
        path = tmp_path / "run.json"
        argv = REPLAYABLE[command] + ["--manifest", str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        manifest = load_manifest(path)
        assert manifest["command"] == command
        # The recorded argv is the invocation minus the manifest flag.
        assert manifest["argv"] == REPLAYABLE[command]
        assert "--manifest" not in manifest["argv"]
        assert manifest["exit_status"] == 0
        assert manifest["output_bytes"] > 0
        assert len(manifest["output_sha256"]) == 64
        for key in ("git_sha", "seed", "config_hash"):
            assert key in manifest["provenance"]
        assert f"wrote replay manifest to {path}" in out


class TestReplay:
    @pytest.mark.parametrize("command", sorted(REPLAYABLE))
    def test_replay_is_byte_identical(self, command, tmp_path, capsys):
        """The acceptance contract: every deterministic experiment
        command replays byte-for-byte from its manifest."""
        path = tmp_path / "run.json"
        assert main(REPLAYABLE[command] + ["--manifest", str(path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(path)]) == 0
        err = capsys.readouterr().err
        assert "replay OK" in err
        assert "byte-identical" in err

    def test_replay_detects_tampered_digest(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert main(["sweep", "--quick", "--manifest", str(path)]) == 0
        manifest = json.loads(path.read_text())
        manifest["output_sha256"] = "0" * 64
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", str(path)]) == 1
        assert "replay MISMATCH" in capsys.readouterr().err

    def test_replay_rejects_non_manifest_files(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="not a repro.manifest"):
            main(["replay", str(path)])


class TestChromeTraceFlag:
    def test_lifecycle_chrome_trace_is_valid(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        argv = REPLAYABLE["lifecycle"] + ["--chrome-trace", str(path)]
        assert main(argv) == 0
        assert "ui.perfetto.dev" in capsys.readouterr().out
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in {"X", "i", "B", "M"}
            assert {"ts", "pid", "tid", "name"} <= set(event)

    def test_flags_never_perturb_output(self, tmp_path, capsys):
        argv = REPLAYABLE["chaos"]
        assert main(argv) == 0
        bare = capsys.readouterr().out
        assert main(
            argv + ["--chrome-trace", str(tmp_path / "t.json"),
                    "--metrics", str(tmp_path / "m.json")]
        ) == 0
        instrumented = capsys.readouterr().out
        # The command's own output is a prefix: identical, with only the
        # export confirmations appended.
        assert instrumented.startswith(bare)
