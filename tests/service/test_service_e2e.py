"""End-to-end: a real server child serves what a direct CLI run prints.

The service's fault modes (overload, duplicate storms, SIGTERM,
``kill -9``, cache tampering) live in the one chaos harness,
:mod:`repro.perf.chaos_exec`, and its tests.
"""

import json
import subprocess
import sys

from repro.service.runner import child_env


class TestServiceCli:
    def test_cli_advertises_service_commands(self):
        from repro.cli import build_parser

        text = build_parser().format_help()
        assert "serve" in text
        assert "chaos-exec" in text


class TestServeChildEndToEnd:
    def test_served_artifact_matches_direct_cli_run(self, tmp_path):
        """Submit over HTTP to a real server child; the fetched artifact
        must be byte-identical to running the same campaign directly."""
        from repro.perf.chaos_exec import _Server, _fast_job, _job_argv

        job = _fast_job(23)
        direct = subprocess.run(
            [sys.executable, "-m", "repro.cli", *_job_argv(job)],
            env=child_env(),
            capture_output=True,
            timeout=120.0,
        )
        assert direct.returncode == 0

        server = _Server(tmp_path / "state", workers=1, timeout=120.0)
        try:
            status, _, document = server.submit(job)
            assert status == 202
            job_id = document["job"]["id"]
            final = server.wait_state(job_id, ("done",), timeout=60.0)
            assert final is not None
            assert final["progress"]["total_chunks"] is not None
            status, headers, payload = server.request(
                "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 200
            assert payload == direct.stdout
            assert headers["X-Repro-Outcome"] == "fresh"
            # The journal survives on disk for the next incarnation.
            journal = json.loads(
                (tmp_path / "state" / "jobs" / f"{job_id}.json").read_text()
            )
            assert journal["state"] == "done"
        finally:
            server.shutdown()
