"""The stdlib HTTP front end: ``nanobox-repro serve``.

A :class:`CampaignService` wraps one :class:`repro.service.runner.
JobManager` in a ``ThreadingHTTPServer`` (stdlib only -- the repo adds
no dependencies for this tier).  The API surface:

========================== ===========================================
``POST /v1/jobs``          submit ``{"kind", "params", "deadline"}``;
                           202 queued, 200 cached/deduplicated,
                           429 overload / 503 draining + ``Retry-After``
``GET /v1/jobs``           list job records
``GET /v1/jobs/<id>``      status: record + checkpoint progress +
                           per-job ``MetricsRegistry`` snapshot
``GET /v1/jobs/<id>/result`` the artifact bytes (verified; partials
                           flagged ``X-Repro-Incomplete: 1``)
``POST /v1/jobs/<id>/cancel`` cancel queued / interrupt running
``GET /v1/metrics``        the ``service.*`` registry snapshot
``GET /healthz``           liveness (always 200 while the process runs)
``GET /readyz``            readiness (503 once draining)
========================== ===========================================

Shutdown discipline: SIGTERM or SIGINT flips the service into drain
mode -- admission refuses with 503, running children get a grace period
then a checkpoint-flushing interrupt, every non-terminal job stays
journaled -- and the process exits 0.  A restarted server on the same
state directory re-enqueues those jobs and their checkpoints make the
re-run a resume.

Stdout carries exactly one line (``service: listening on ...``) so
wrappers can parse the bound port; everything else goes to stderr,
keeping the artifact-bytes-on-stdout convention of the rest of the CLI.
"""

from __future__ import annotations

import json
import re
import signal
import sys
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.cli import command_params
from repro.obs.metrics import MetricsRegistry
from repro.service.jobs import JobSpec
from repro.service.runner import ChildCliExecutor, JobManager

__all__ = ["CampaignService", "ServiceConfig"]

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)$")
_RESULT_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)/result$")
_CANCEL_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_-]+)/cancel$")
_MAX_BODY = 1 << 20  # a job request is a small JSON document


def _serve_defaults(cls):
    """Give each field the default of its ``serve`` flag, declared once
    in :data:`repro.cli.COMMANDS`; a required flag's field has none."""
    for name, param in command_params("serve").items():
        if not param.required:
            setattr(cls, name, param.default)
    return cls


@dataclass(frozen=True)
@_serve_defaults
class ServiceConfig:
    """Everything ``serve`` needs to stand up one service instance: one
    field per ``serve`` flag, with that flag's default."""

    state_dir: Union[str, Path]
    host: str
    port: int  # 0: ephemeral, reported on stdout
    workers: int
    queue_capacity: int
    cache_budget: Optional[int]
    max_attempts: int
    breaker_threshold: int
    chunk_size: int
    chunk_timeout: Optional[float]
    job_timeout: float
    default_deadline: Optional[float]
    drain_grace: float
    verbose: bool


class CampaignService:
    """One HTTP front end over one :class:`JobManager`.

    Args:
        config: the service configuration.
        execute: optional executor override (tests inject fakes); the
            default is a :class:`ChildCliExecutor` built from ``config``.
        metrics: optional shared :class:`MetricsRegistry`.
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        execute=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        if execute is None:
            execute = ChildCliExecutor(
                chunk_size=config.chunk_size,
                job_timeout=config.job_timeout,
                chunk_timeout=config.chunk_timeout,
            )
        self.manager = JobManager(
            config.state_dir,
            execute=execute,
            workers=config.workers,
            queue_capacity=config.queue_capacity,
            cache_budget=config.cache_budget,
            max_attempts=config.max_attempts,
            breaker_threshold=config.breaker_threshold,
            metrics=metrics,
        )
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._shutdown = threading.Event()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, start workers and the HTTP thread; returns (host, port)."""
        service = self

        class Handler(_ServiceHandler):
            pass

        Handler.service = service
        httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), Handler
        )
        httpd.daemon_threads = True
        self._httpd = httpd
        self.manager.start()
        self._http_thread = threading.Thread(
            target=httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="service-http",
            daemon=True,
        )
        self._http_thread.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._httpd is None:
            raise RuntimeError("service is not started")
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def request_shutdown(self) -> None:
        """Flag the blocking :meth:`serve` loop to drain and exit."""
        self._shutdown.set()

    def drain_and_stop(self, grace: Optional[float] = None) -> Dict[str, int]:
        """Drain the manager, then tear the HTTP listener down."""
        summary = self.manager.drain(
            self.config.drain_grace if grace is None else grace
        )
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=10.0)
            self._http_thread = None
        return summary

    def serve(self) -> int:
        """Run until SIGTERM/SIGINT, drain gracefully, exit 0.

        The one stdout line announces the bound address; drain progress
        goes to stderr like every other operational note.
        """
        host, port = self.start()
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_args: self._shutdown.set()
            )
        print(f"service: listening on http://{host}:{port}", flush=True)
        try:
            self._shutdown.wait()
            print(
                "service: draining (admission closed, checkpointing "
                "in-flight jobs)",
                file=sys.stderr,
                flush=True,
            )
            summary = self.drain_and_stop()
            print(
                "service: drained "
                f"(finished grace window, interrupted "
                f"{summary['interrupted']}, requeued {summary['requeued']}, "
                f"queued for restart {summary['queued_left']})",
                file=sys.stderr,
                flush=True,
            )
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return 0


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the bound :class:`CampaignService`."""

    service: CampaignService  # bound by CampaignService.start
    protocol_version = "HTTP/1.1"
    server_version = "nanobox-repro-service/1"
    sys_version = ""

    # -- plumbing ------------------------------------------------------

    def log_message(self, fmt: str, *args: Any) -> None:
        if self.service.config.verbose:
            sys.stderr.write(
                f"service: {self.address_string()} {fmt % args}\n"
            )

    def _send_json(
        self,
        status: int,
        document: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(
        self, status: int, payload: bytes, headers: Dict[str, str]
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return None
        if length < 0 or length > _MAX_BODY:
            return None
        return self.rfile.read(length) if length else b""

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        manager = self.service.manager
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
            return
        if path == "/readyz":
            if manager.draining:
                self._send_json(
                    503, {"status": "draining"}, {"Retry-After": "1"}
                )
            else:
                self._send_json(200, {"status": "ready"})
            return
        if path == "/v1/metrics":
            self._send_json(200, manager.service_snapshot())
            return
        if path == "/v1/jobs":
            self._send_json(
                200,
                {"jobs": [record.to_json() for record in manager.records()]},
            )
            return
        match = _JOB_PATH.match(path)
        if match:
            document = manager.status(match.group(1))
            if document is None:
                self._send_json(404, {"error": "no such job"})
            else:
                self._send_json(200, document)
            return
        match = _RESULT_PATH.match(path)
        if match:
            self._get_result(match.group(1))
            return
        self._send_json(404, {"error": f"no route for {path}"})

    def _get_result(self, job_id: str) -> None:
        manager = self.service.manager
        payload, reason = manager.result(job_id)
        if payload is not None:
            record = manager.get(job_id)
            headers = {
                "X-Repro-Job": job_id,
                "X-Repro-Outcome": record.outcome if record else "unknown",
            }
            if record is not None and record.result_sha256:
                headers["X-Repro-Sha256"] = record.result_sha256
            if reason == "partial":
                headers["X-Repro-Incomplete"] = "1"
            self._send_bytes(200, payload, headers)
            return
        status = {
            "not-found": 404,
            "not-ready": 409,
            "evicted": 410,
            "corrupt": 500,
        }.get(reason, 409)
        self._send_json(status, {"error": reason, "job": job_id})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path = self.path.split("?", 1)[0]
        if path == "/v1/jobs":
            self._post_job()
            return
        match = _CANCEL_PATH.match(path)
        if match:
            ok, reason = self.service.manager.cancel(match.group(1))
            if ok:
                self._send_json(202, {"status": reason})
            else:
                status = 404 if reason == "not-found" else 409
                self._send_json(status, {"error": reason})
            return
        self._send_json(404, {"error": f"no route for {path}"})

    def _post_job(self) -> None:
        body = self._read_body()
        if body is None:
            self._send_json(400, {"error": "bad or oversized request body"})
            return
        try:
            request = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON: {exc}"})
            return
        if not isinstance(request, dict):
            self._send_json(400, {"error": "request must be a JSON object"})
            return
        deadline = request.get("deadline", self.service.config.default_deadline)
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or deadline <= 0
        ):
            self._send_json(
                400, {"error": f"deadline must be > 0, got {deadline!r}"}
            )
            return
        try:
            spec = JobSpec.from_request(
                request.get("kind"), request.get("params")
            )
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        outcome = self.service.manager.submit(
            spec, deadline=float(deadline) if deadline is not None else None
        )
        if not outcome.accepted:
            status = 429 if outcome.status == "rejected-overload" else 503
            self._send_json(
                status,
                {"status": outcome.status, "retry_after": outcome.retry_after},
                {"Retry-After": str(outcome.retry_after or 1)},
            )
            return
        record = outcome.record
        http_status = 202 if outcome.status == "queued" else 200
        self._send_json(
            http_status,
            {"status": outcome.status, "job": record.to_json()},
            {"Location": f"/v1/jobs/{record.id}"},
        )
