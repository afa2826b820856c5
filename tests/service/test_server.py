"""HTTP surface: routes, status codes, headers, shed/drain responses.

A fake executor keeps these fast and deterministic; the full child
process path over HTTP is covered by ``test_service_e2e``.
"""

import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.service.runner import JobOutput
from repro.service.server import CampaignService, ServiceConfig


class EchoExecutor:
    def run(self, record, job_dir, checkpoint_dir):
        return JobOutput(b"artifact:" + record.cache_key.encode(), "", 0)


class GateExecutor:
    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.interrupted = set()
        self._lock = threading.Lock()

    def run(self, record, job_dir, checkpoint_dir):
        self.started.set()
        self.release.wait(timeout=30.0)
        with self._lock:
            if record.id in self.interrupted:
                return JobOutput(b"", "interrupted", exit_status=-2)
        return JobOutput(b"gated", "", 0)

    def interrupt(self, job_id):
        with self._lock:
            self.interrupted.add(job_id)
        self.release.set()
        return True


def _request(base, method, path, document=None, timeout=10.0):
    """(status, headers, body bytes) without raising on HTTP errors."""
    data = None
    headers = {}
    if document is not None:
        data = json.dumps(document).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        base + path, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _submit(base, document):
    status, headers, body = _request(base, "POST", "/v1/jobs", document)
    return status, headers, json.loads(body)


def _wait_state(base, job_id, states, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, body = _request(base, "GET", f"/v1/jobs/{job_id}")
        document = json.loads(body)
        if document.get("state") in states:
            return document
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {states}")


def _service(tmp_path, execute, **overrides):
    config = ServiceConfig(state_dir=tmp_path / "state", **overrides)
    service = CampaignService(config, execute=execute)
    host, port = service.start()
    return service, f"http://{host}:{port}"


class TestRoutes:
    @pytest.fixture()
    def base(self, tmp_path):
        service, base = _service(tmp_path, EchoExecutor(), workers=1)
        yield base
        service.drain_and_stop(grace=0.0)

    def test_healthz_and_readyz(self, base):
        assert _request(base, "GET", "/healthz")[0] == 200
        status, _, body = _request(base, "GET", "/readyz")
        assert status == 200
        assert json.loads(body) == {"status": "ready"}

    def test_unknown_route_404(self, base):
        assert _request(base, "GET", "/v2/nope")[0] == 404
        assert _request(base, "POST", "/v1/other")[0] == 404

    def test_submit_poll_fetch_result(self, base):
        status, headers, document = _submit(
            base, {"kind": "grid", "params": {"rows": 4, "cols": 4}}
        )
        assert status == 202
        assert document["status"] == "queued"
        job_id = document["job"]["id"]
        assert headers["Location"] == f"/v1/jobs/{job_id}"
        final = _wait_state(base, job_id, {"done"})
        assert final["outcome"] == "fresh"
        assert final["progress"]["completed_chunks"] is not None
        status, headers, payload = _request(
            base, "GET", f"/v1/jobs/{job_id}/result"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/octet-stream"
        assert headers["X-Repro-Outcome"] == "fresh"
        assert payload.startswith(b"artifact:")

    def test_resubmit_is_cached_and_byte_identical(self, base):
        job = {"kind": "grid", "params": {"rows": 4, "cols": 4, "seed": 3}}
        _, _, first = _submit(base, job)
        _wait_state(base, first["job"]["id"], {"done"})
        payload_a = _request(
            base, "GET", f"/v1/jobs/{first['job']['id']}/result"
        )[2]
        status, _, second = _submit(base, job)
        assert status == 200
        assert second["status"] == "cached"
        status, headers, payload_b = _request(
            base, "GET", f"/v1/jobs/{second['job']['id']}/result"
        )
        assert status == 200
        assert headers["X-Repro-Outcome"] == "cached"
        assert payload_a == payload_b

    def test_jobs_listing(self, base):
        _submit(base, {"kind": "sweep", "params": {"figure": 7}})
        _, _, body = _request(base, "GET", "/v1/jobs")
        listing = json.loads(body)["jobs"]
        assert len(listing) == 1
        assert listing[0]["spec"]["kind"] == "sweep"

    def test_metrics_snapshot(self, base):
        _submit(base, {"kind": "grid", "params": {}})
        _, _, body = _request(base, "GET", "/v1/metrics")
        snapshot = json.loads(body)
        assert snapshot["counters"]["service.jobs_submitted"] == 1


class TestValidation:
    @pytest.fixture()
    def base(self, tmp_path):
        service, base = _service(tmp_path, EchoExecutor(), workers=1)
        yield base
        service.drain_and_stop(grace=0.0)

    def test_invalid_json_400(self, base):
        req = urllib.request.Request(
            base + "/v1/jobs", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10.0)
        assert excinfo.value.code == 400

    def test_unknown_kind_400(self, base):
        status, _, document = _submit(base, {"kind": "shell", "params": {}})
        assert status == 400
        assert "unknown job kind" in document["error"]

    def test_flag_injection_400(self, base):
        status, _, document = _submit(
            base, {"kind": "grid", "params": {"scheme": "--evil"}}
        )
        assert status == 400
        assert "scheme" in document["error"]

    @pytest.mark.parametrize("kind, params", [
        ("chaos", {"rates": [1.5]}),
        ("lifecycle", {"rate": 0.002}),
    ])
    def test_out_of_domain_400(self, base, kind, params):
        status, _, _ = _submit(base, {"kind": kind, "params": params})
        assert status == 400

    def test_bad_deadline_400(self, base):
        for deadline in (0, -3, "soon", True):
            status, _, document = _submit(
                base, {"kind": "grid", "params": {}, "deadline": deadline}
            )
            assert status == 400
            assert "deadline" in document["error"]

    def test_missing_job_404(self, base):
        assert _request(base, "GET", "/v1/jobs/j999999")[0] == 404
        assert _request(base, "GET", "/v1/jobs/j999999/result")[0] == 404
        assert _request(base, "POST", "/v1/jobs/j999999/cancel")[0] == 404


class TestBackpressure:
    def test_overload_returns_429_with_retry_after(self, tmp_path):
        gate = GateExecutor()
        service, base = _service(
            tmp_path, gate, workers=1, queue_capacity=1
        )
        try:
            _submit(base, {"kind": "grid", "params": {"seed": 1}})
            assert gate.started.wait(5.0)
            _submit(base, {"kind": "grid", "params": {"seed": 2}})
            status, headers, document = _submit(
                base, {"kind": "grid", "params": {"seed": 3}}
            )
            assert status == 429
            assert document["status"] == "rejected-overload"
            assert int(headers["Retry-After"]) >= 1
            gate.release.set()
        finally:
            service.drain_and_stop(grace=1.0)

    def test_result_of_running_job_409(self, tmp_path):
        gate = GateExecutor()
        service, base = _service(tmp_path, gate, workers=1)
        try:
            _, _, document = _submit(base, {"kind": "grid", "params": {}})
            job_id = document["job"]["id"]
            assert gate.started.wait(5.0)
            status, _, body = _request(
                base, "GET", f"/v1/jobs/{job_id}/result"
            )
            assert status == 409
            assert json.loads(body)["error"] == "not-ready"
            gate.release.set()
        finally:
            service.drain_and_stop(grace=1.0)

    def test_cancel_running_job_over_http(self, tmp_path):
        gate = GateExecutor()
        service, base = _service(tmp_path, gate, workers=1)
        try:
            _, _, document = _submit(base, {"kind": "grid", "params": {}})
            job_id = document["job"]["id"]
            assert gate.started.wait(5.0)
            status, _, body = _request(
                base, "POST", f"/v1/jobs/{job_id}/cancel"
            )
            assert status == 202
            assert json.loads(body)["status"] == "cancelling"
            _wait_state(base, job_id, {"cancelled"})
        finally:
            service.drain_and_stop(grace=1.0)


class TestDraining:
    def test_draining_returns_503_everywhere_it_should(self, tmp_path):
        service, base = _service(tmp_path, EchoExecutor(), workers=1)
        try:
            service.manager.drain(grace=0.0)
            status, headers, _ = _request(base, "GET", "/readyz")
            assert status == 503
            assert headers["Retry-After"] == "1"
            status, headers, document = _submit(
                base, {"kind": "grid", "params": {}}
            )
            assert status == 503
            assert document["status"] == "rejected-draining"
            assert int(headers["Retry-After"]) >= 1
            # Liveness and reads keep answering during the drain window.
            assert _request(base, "GET", "/healthz")[0] == 200
            assert _request(base, "GET", "/v1/jobs")[0] == 200
        finally:
            service.drain_and_stop(grace=0.0)


class TestServeCommand:
    """``serve`` hands the service exactly the settings it was given,
    and its defaults are the ``ServiceConfig`` defaults (one source)."""

    @pytest.fixture()
    def served(self, monkeypatch):
        configs = []
        monkeypatch.setattr(
            CampaignService, "serve",
            lambda service: configs.append(service.config) or 0,
        )
        return configs

    def test_every_flag_reaches_the_config(self, served, tmp_path):
        state = str(tmp_path / "state")
        assert main([
            "serve", "--state-dir", state, "--host", "0.0.0.0",
            "--port", "8123", "--workers", "3", "--queue-capacity", "5",
            "--cache-budget", "1024", "--max-attempts", "4",
            "--breaker-threshold", "2", "--chunk-size", "7",
            "--chunk-timeout", "12.5", "--job-timeout", "60",
            "--default-deadline", "30", "--drain-grace", "0", "--verbose",
        ]) == 0
        expected = ServiceConfig(
            state_dir=state, host="0.0.0.0", port=8123, workers=3,
            queue_capacity=5, cache_budget=1024, max_attempts=4,
            breaker_threshold=2, chunk_size=7, chunk_timeout=12.5,
            job_timeout=60.0, default_deadline=30.0, drain_grace=0.0,
            verbose=True,
        )
        assert served == [expected]
        defaults = ServiceConfig(state_dir=state)
        assert all(
            getattr(expected, field.name) != getattr(defaults, field.name)
            for field in dataclasses.fields(ServiceConfig)
            if field.name != "state_dir"
        )

    def test_defaults_match_the_dataclass(self, served, tmp_path):
        state = str(tmp_path / "state")
        assert main(["serve", "--state-dir", state]) == 0
        assert served == [ServiceConfig(state_dir=state)]


class TestServiceConfigDomains:
    """A library caller gets the ``serve`` flags' domains too: an
    out-of-range setting is refused before any service state exists,
    not run, retried and failed in every job's child."""

    @pytest.mark.parametrize("field, value, message", [
        ("chunk_size", 0, "chunk_size: must be at least 1, got 0"),
        ("workers", 0, "workers: must be at least 1, got 0"),
        ("port", 70000, "port: must be within [0, 65535], got 70000"),
        ("cache_budget", -1, "cache_budget: must be at least 0, got -1"),
        ("job_timeout", 0, "job_timeout: must be greater than 0, got 0"),
        ("chunk_timeout", -2.5,
         "chunk_timeout: must be greater than 0, got -2.5"),
        ("drain_grace", -1.0, "drain_grace: must be at least 0, got -1.0"),
        ("max_attempts", 1.5, "max_attempts: not an integer: '1.5'"),
    ])
    def test_out_of_domain_setting_is_refused(
        self, tmp_path, field, value, message
    ):
        state = tmp_path / "state"
        with pytest.raises(ValueError) as exc:
            ServiceConfig(state_dir=state, **{field: value})
        assert str(exc.value) == message
        assert not state.exists()

    def test_in_domain_settings_are_kept(self, tmp_path):
        config = ServiceConfig(
            state_dir=tmp_path, port=65535, cache_budget=0, job_timeout=5,
            chunk_timeout=None, drain_grace=0.0,
        )
        assert (config.port, config.job_timeout) == (65535, 5)
