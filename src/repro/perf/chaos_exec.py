"""Process-level chaos harness: prove the runtime survives real faults.

``repro.experiments.chaos_fabric`` injects faults into the *simulated*
transport fabric; this module injects faults into the *real* runtime
and asserts its invariants end to end.  The first five modes attack
campaign *runs* -- ``nanobox-repro sweep`` children under the
crash-safe runtime -- and the last five attack the campaign *service*
-- a real ``nanobox-repro serve`` child and its job children:

==========  =====================================  ======================
mode        injected fault                         asserted invariant
==========  =====================================  ======================
kill        SIGKILL at a chunk boundary            resume is byte-identical
                                                   to an uninterrupted run
hang        a worker wedges for minutes            executor timeout + pool
                                                   rebuild recover in-run
corrupt     checkpoint truncated + bit-flipped     quarantined ``*.corrupt``
                                                   + recomputed, identical
disk-full   every checkpoint write ENOSPCs         run completes, output
                                                   unperturbed, degradation
                                                   reported
deadline    budget expires before any chunk        explicit INCOMPLETE
                                                   partial report; resume
                                                   completes identically
overload    submission burst past queue capacity   bounded admission: the
                                                   excess is shed with 429
                                                   + ``Retry-After``, the
                                                   admitted jobs complete
dup-storm   concurrent identical submissions       single-flight: exactly
                                                   one computation, every
                                                   response byte-identical
                                                   to a direct CLI run
sigterm     SIGTERM mid-job (grace 0)              clean drain exit 0; the
                                                   restarted server resumes
                                                   the job to an artifact
                                                   byte-identical to an
                                                   uninterrupted run
kill9       SIGKILL server *and* its child         journal + checkpoints
            (simulated power loss)                 recover the job; resumed
                                                   output byte-identical
tamper      a cached artifact bit-flipped on disk  never served: the entry
                                                   is quarantined and the
                                                   artifact recomputed,
                                                   byte-identical
==========  =====================================  ======================

Faults are injected through deterministic knobs (environment variables
honoured by :mod:`repro.perf.resilient`, :mod:`repro.perf.checkpoint`
and the executor's worker entry point) or at points the harness
observes (a checkpoint landed, a job is running), never by wall-clock
races, and the report holds only booleans and counts.  Two harness
runs therefore produce byte-identical reports -- which CI asserts, the
same two-run determinism gate every prior layer carries.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cli import EXIT_INCOMPLETE
from repro.perf.checkpoint import CHAOS_DISK_FULL_ENV
from repro.perf.executor import CHAOS_HANG_ENV
from repro.perf.resilient import CHAOS_KILL_ENV
from repro.service.runner import child_env

__all__ = [
    "CHAOS_MODES",
    "ChaosOutcome",
    "chaos_exec_report",
    "run_chaos_suite",
]

#: Checkpoint chunk size of the target sweep.  The ``kill`` invariant
#: (SIGKILL after chunk 1 leaves 2 of the quick sweep's 7 chunks on
#: disk) is stated for this partitioning.
_CHUNK_SIZE = 4

_LISTEN_PREFIX = "service: listening on "
_REUSED_RE = re.compile(r"reused (\d+)/(\d+) chunk")
_QUARANTINED_RE = re.compile(r"quarantined (\d+) corrupt")


@dataclass(frozen=True)
class ChaosOutcome:
    """What one injected fault did, and whether the runtime survived it.

    Attributes:
        mode: the fault mode injected.
        fault: human description of the injection.
        recovered: every invariant for the mode held -- a complete,
            correct result (or for ``deadline``, an explicit partial
            followed by a clean resume) was obtained.
        byte_identical: final output byte-for-byte equals the clean
            direct CLI run (``overload`` checks no artifact and reports
            True).
        detail: deterministic one-line postscript for the report.
        reused_chunks / total_chunks: checkpoints served on the recovery
            run (-1 when the mode has no recovery run).
        quarantined: corrupt checkpoint records or cached artifacts
            detected and set aside.
    """

    mode: str
    fault: str
    recovered: bool
    byte_identical: bool
    detail: str
    reused_chunks: int = -1
    total_chunks: int = -1
    quarantined: int = 0


def _failed(mode: str, detail: str) -> ChaosOutcome:
    """A mode whose fault could not even be set up."""
    return ChaosOutcome(
        mode=mode,
        fault="(setup)",
        recovered=False,
        byte_identical=False,
        detail=detail,
    )


def _run_cli(
    argv: Sequence[str],
    env_extra: Optional[Dict[str, str]] = None,
    timeout: float = 300.0,
) -> Tuple[int, bytes, str]:
    """Run ``nanobox-repro`` in a child: (rc, stdout bytes, stderr text)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=child_env(env_extra),
        capture_output=True,
        timeout=timeout,
    )
    return (
        proc.returncode,
        proc.stdout,
        proc.stderr.decode("utf-8", "replace"),
    )


def _parse_reuse(stderr: str) -> Tuple[int, int]:
    match = _REUSED_RE.search(stderr)
    return (int(match.group(1)), int(match.group(2))) if match else (-1, -1)


def _parse_quarantined(stderr: str) -> int:
    match = _QUARANTINED_RE.search(stderr)
    return int(match.group(1)) if match else 0


class _ChaosContext:
    """Shared per-suite state: workdir, seed, and reference outputs."""

    def __init__(self, workdir: Path, seed: int, timeout: float) -> None:
        self.workdir = workdir
        self.seed = seed
        self.timeout = timeout
        self._references: Dict[Tuple[str, ...], bytes] = {}

    def reference(self, argv: Sequence[str]) -> bytes:
        """A clean direct CLI run's stdout for ``argv``, run once."""
        key = tuple(argv)
        if key not in self._references:
            rc, stdout, stderr = _run_cli(argv, timeout=self.timeout)
            if rc != 0:
                raise RuntimeError(
                    f"reference run failed (rc {rc}): {stderr.strip()[:500]}"
                )
            self._references[key] = stdout
        return self._references[key]

    def _sweep_argv(self, *resilience: str) -> List[str]:
        return ["sweep", "--quick", "--seed", str(self.seed), *resilience]

    def sweep_reference(self) -> bytes:
        """The uninterrupted target sweep every run-level mode matches."""
        return self.reference(self._sweep_argv())

    def run_target(
        self,
        checkpoint_dir: Path,
        *flags: str,
        env_extra: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes, str]:
        argv = self._sweep_argv(
            "--checkpoint-dir",
            str(checkpoint_dir),
            "--checkpoint-chunk-size",
            str(_CHUNK_SIZE),
            *flags,
        )
        return _run_cli(argv, env_extra=env_extra, timeout=self.timeout)

    def checkpoint_files(self, checkpoint_dir: Path) -> List[Path]:
        return sorted(checkpoint_dir.glob("*/chunk_*.json"))

    def corrupt_files(self, checkpoint_dir: Path) -> List[Path]:
        return sorted(checkpoint_dir.glob("*/chunk_*.corrupt*"))


# -- run-level modes: sweep children under the crash-safe runtime -------


def _mode_kill(ctx: _ChaosContext) -> ChaosOutcome:
    """SIGKILL after chunk 1's checkpoint lands; resume must be exact."""
    ckdir = ctx.workdir / "kill"
    rc, _, _ = ctx.run_target(ckdir, env_extra={CHAOS_KILL_ENV: "1"})
    died_by_sigkill = rc == -signal.SIGKILL
    survivors = len(ctx.checkpoint_files(ckdir))
    rc2, out2, err2 = ctx.run_target(ckdir, "--resume")
    reused, total = _parse_reuse(err2)
    identical = out2 == ctx.sweep_reference()
    return ChaosOutcome(
        mode="kill",
        fault="SIGKILL after chunk 1 checkpoint",
        recovered=died_by_sigkill and rc2 == 0 and identical,
        byte_identical=identical,
        reused_chunks=reused,
        total_chunks=total,
        detail=(
            f"killed with SIGKILL, {survivors} chunk(s) survived on disk, "
            f"resume exit {rc2}"
        ),
    )


def _mode_hang(ctx: _ChaosContext) -> ChaosOutcome:
    """One worker wedges; the executor's timeout recovery finishes the run."""
    ckdir = ctx.workdir / "hang"
    sentinel = ctx.workdir / "hang.sentinel"
    rc, out, err = ctx.run_target(
        ckdir,
        "--jobs",
        "2",
        "--chunk-timeout",
        "2",
        env_extra={
            CHAOS_HANG_ENV: str(sentinel),
            "REPRO_CHAOS_HANG_SECS": "600",
        },
    )
    identical = out == ctx.sweep_reference()
    hung = sentinel.exists()  # a worker really did claim the hang
    return ChaosOutcome(
        mode="hang",
        fault="worker wedged 600s (timeout budget 2s)",
        recovered=rc == 0 and identical and hung,
        byte_identical=identical,
        detail=f"in-run recovery via pool rebuild, exit {rc}",
    )


def _mode_corrupt(ctx: _ChaosContext) -> ChaosOutcome:
    """Truncate one record, bit-flip another; both must be quarantined."""
    ckdir = ctx.workdir / "corrupt"
    rc, _, _ = ctx.run_target(ckdir)
    files = ctx.checkpoint_files(ckdir)
    if rc != 0 or len(files) < 2:
        return _failed(
            "corrupt", f"setup run failed (exit {rc}, {len(files)} records)"
        )
    # Truncate the first record mid-document ...
    truncated = files[0]
    truncated.write_text(truncated.read_text()[: truncated.stat().st_size // 2])
    # ... and flip one bit inside the second record's payload.
    flipped = files[1]
    blob = bytearray(flipped.read_bytes())
    target = blob.rfind(b'"total"')
    blob[target + len(b'"total"') + 3] ^= 0x01  # a digit of the value
    flipped.write_bytes(bytes(blob))
    rc2, out2, err2 = ctx.run_target(ckdir, "--resume")
    reused, total = _parse_reuse(err2)
    quarantined = _parse_quarantined(err2)
    on_disk = len(ctx.corrupt_files(ckdir))
    identical = out2 == ctx.sweep_reference()
    return ChaosOutcome(
        mode="corrupt",
        fault="one record truncated, one bit-flipped",
        recovered=rc2 == 0 and identical and quarantined == 2 and on_disk == 2,
        byte_identical=identical,
        reused_chunks=reused,
        total_chunks=total,
        quarantined=quarantined,
        detail=f"{on_disk} *.corrupt file(s) kept for post-mortem",
    )


def _mode_disk_full(ctx: _ChaosContext) -> ChaosOutcome:
    """ENOSPC after two checkpoint writes; the run must not care."""
    ckdir = ctx.workdir / "disk-full"
    rc, out, err = ctx.run_target(
        ckdir, env_extra={CHAOS_DISK_FULL_ENV: "2"}
    )
    identical = out == ctx.sweep_reference()
    written = len(ctx.checkpoint_files(ckdir))
    degraded = "degraded" in err
    return ChaosOutcome(
        mode="disk-full",
        fault="ENOSPC on every checkpoint write after the second",
        recovered=rc == 0 and identical and degraded,
        byte_identical=identical,
        detail=f"{written} record(s) written before the disk filled, "
               f"exit {rc}",
    )


def _mode_deadline(ctx: _ChaosContext) -> ChaosOutcome:
    """An expired budget yields an explicit partial; resume completes it."""
    ckdir = ctx.workdir / "deadline"
    rc, out, _ = ctx.run_target(ckdir, "--deadline", "0.000001")
    partial = rc == EXIT_INCOMPLETE and b"INCOMPLETE" in out
    rc2, out2, err2 = ctx.run_target(ckdir, "--resume")
    reused, total = _parse_reuse(err2)
    identical = out2 == ctx.sweep_reference()
    return ChaosOutcome(
        mode="deadline",
        fault="1µs deadline (expires before the first chunk)",
        recovered=partial and rc2 == 0 and identical,
        byte_identical=identical,
        reused_chunks=reused,
        total_chunks=total,
        detail=(
            f"partial exit {rc} with INCOMPLETE report, "
            f"resume exit {rc2}"
        ),
    )


# -- service-level modes: a real server child and its job children ------


class _Server:
    """One ``nanobox-repro serve`` child and an HTTP client onto it."""

    def __init__(
        self,
        state_dir: Path,
        *,
        workers: int = 1,
        queue_capacity: int = 4,
        drain_grace: float = 0.0,
        chunk_size: int = 1,
        timeout: float = 300.0,
    ) -> None:
        self.state_dir = state_dir
        self.timeout = timeout
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--state-dir",
                str(state_dir),
                "--host",
                "127.0.0.1",
                "--port",
                "0",
                "--workers",
                str(workers),
                "--queue-capacity",
                str(queue_capacity),
                "--chunk-size",
                str(chunk_size),
                "--drain-grace",
                str(drain_grace),
            ],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith(_LISTEN_PREFIX):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(
                f"server failed to start: {line!r} / "
                f"{self.proc.stderr.read()[:500]}"
            )
        self.base = line[len(_LISTEN_PREFIX):].strip()

    def request(
        self,
        method: str,
        path: str,
        document: Optional[Dict[str, Any]] = None,
        timeout: float = 30.0,
    ) -> Tuple[int, Dict[str, str], bytes]:
        data = (
            json.dumps(document).encode("utf-8")
            if document is not None
            else None
        )
        request = urllib.request.Request(
            self.base + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def submit(self, job: Dict[str, Any]) -> Tuple[int, Dict[str, str], Dict]:
        status, headers, body = self.request("POST", "/v1/jobs", job)
        return status, headers, json.loads(body or b"{}")

    def wait_state(
        self, job_id: str, states: Sequence[str], timeout: float
    ) -> Optional[Dict[str, Any]]:
        """Poll until the job reaches one of ``states`` (None: timed out)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, _, body = self.request("GET", f"/v1/jobs/{job_id}")
            if status == 200:
                document = json.loads(body)
                if document["state"] in states:
                    return document
            time.sleep(0.05)
        return None

    def wait_progress(self, job_id: str, chunks: int, timeout: float) -> bool:
        """Poll until >= ``chunks`` checkpoints landed while still running."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, _, body = self.request("GET", f"/v1/jobs/{job_id}")
            if status != 200:
                return False
            document = json.loads(body)
            if document["state"] not in ("queued", "running"):
                return False  # finished before the fault window opened
            if document["progress"]["completed_chunks"] >= chunks:
                return True
            time.sleep(0.02)
        return False

    def sigterm(self, timeout: float = 60.0) -> Tuple[int, str]:
        """SIGTERM the server; returns (exit status, stderr text)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            _, stderr = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, stderr = self.proc.communicate()
            return -9, stderr or ""
        return self.proc.returncode, stderr or ""

    def kill9(self) -> List[int]:
        """SIGKILL the server *and* its job children (power loss)."""
        self.proc.kill()
        self.proc.communicate()
        killed: List[int] = []
        for pid_file in sorted(self.state_dir.glob("jobs/*/child.pid")):
            try:
                pid = int(pid_file.read_text().strip())
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            except (ValueError, OSError):
                continue
        return killed

    def shutdown(self) -> None:
        if self.proc.poll() is None:
            self.sigterm()


def _slow_job(seed: int) -> Dict[str, Any]:
    """A multi-chunk job slow enough to interrupt mid-run (~8s, 12 chunks
    at chunk size 1)."""
    return {
        "kind": "chaos",
        "params": {
            "rates": [0.0, 0.001, 0.002, 0.003, 0.005, 0.01],
            "rounds": [1, 3],
            "rows": 4,
            "cols": 4,
            "instructions": 600,
            "seed": seed,
        },
    }


def _fast_job(seed: int) -> Dict[str, Any]:
    """A sub-second job for cache/dedup modes."""
    return {
        "kind": "grid",
        "params": {"rows": 4, "cols": 4, "scheme": "hamming", "seed": seed},
    }


def _job_argv(job: Dict[str, Any]) -> List[str]:
    from repro.service.jobs import JobSpec

    return JobSpec.from_request(job["kind"], job["params"]).to_argv()


def _job_list(server: _Server) -> List[Dict[str, Any]]:
    _, _, body = server.request("GET", "/v1/jobs")
    return json.loads(body)["jobs"]


def _mode_overload(ctx: _ChaosContext) -> ChaosOutcome:
    """Burst past capacity: the excess is shed, the admitted complete."""
    server = _Server(
        ctx.workdir / "overload", workers=1, queue_capacity=1,
        timeout=ctx.timeout,
    )
    try:
        # Occupy the single worker with a slow job ...
        status, _, first = server.submit(_slow_job(ctx.seed))
        if status != 202:
            return _failed("overload", f"setup submit got HTTP {status}")
        if server.wait_state(
            first["job"]["id"], ("running",), timeout=30.0
        ) is None:
            return _failed("overload", "setup job never started running")
        # ... then burst 5 distinct fast jobs at a queue of capacity 1.
        accepted, shed, retry_after_ok = 0, 0, True
        for offset in range(5):
            status, headers, body = server.submit(
                _fast_job(ctx.seed + 100 + offset)
            )
            if status == 202:
                accepted += 1
            elif status == 429:
                shed += 1
                retry_after_ok &= int(headers.get("Retry-After", "0")) >= 1
            else:
                return _failed("overload", f"burst got HTTP {status}")
        # The shed clients backing off must eventually get through: the
        # admitted jobs all finish.
        documents = [
            document
            for document in (
                server.wait_state(record["id"], ("done",), timeout=60.0)
                for record in _job_list(server)
            )
            if document is not None
        ]
        all_done = len(documents) == 1 + accepted
        return ChaosOutcome(
            mode="overload",
            fault="burst of 5 submissions at queue capacity 1",
            recovered=(
                accepted == 1 and shed == 4 and retry_after_ok and all_done
            ),
            byte_identical=True,
            detail=(
                f"{accepted} admitted, {shed} shed with 429 + Retry-After, "
                f"admitted jobs all completed: "
                f"{'yes' if all_done else 'NO'}"
            ),
        )
    finally:
        server.shutdown()


def _mode_dup_storm(ctx: _ChaosContext) -> ChaosOutcome:
    """Concurrent identical submissions: one computation, equal bytes."""
    server = _Server(
        ctx.workdir / "dup-storm", workers=2, queue_capacity=8,
        timeout=ctx.timeout,
    )
    try:
        job = _fast_job(ctx.seed + 1)
        results: List[Dict[str, Any]] = []
        lock = threading.Lock()

        def fire() -> None:
            _, _, document = server.submit(job)
            with lock:
                results.append(document)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        job_ids = {doc["job"]["id"] for doc in results if "job" in doc}
        first_id = sorted(job_ids)[0] if job_ids else None
        if first_id is None or server.wait_state(
            first_id, ("done",), timeout=60.0
        ) is None:
            return _failed("dup-storm", "no submission produced a job")
        # A late wave after completion must be served from the cache.
        late = [server.submit(job)[2] for _ in range(4)]
        job_ids.update(doc["job"]["id"] for doc in late)
        cached = sum(1 for doc in late if doc.get("status") == "cached")
        # Every job id's artifact must equal the direct-CLI reference.
        reference = ctx.reference(_job_argv(job))
        artifacts = []
        for job_id in sorted(job_ids):
            status, _, payload = server.request(
                "GET", f"/v1/jobs/{job_id}/result"
            )
            artifacts.append((status, payload))
        identical = all(
            status == 200 and payload == reference
            for status, payload in artifacts
        )
        _, _, metrics_body = server.request("GET", "/v1/metrics")
        executions = json.loads(metrics_body)["counters"].get(
            "service.executions", -1
        )
        return ChaosOutcome(
            mode="dup-storm",
            fault="8 concurrent + 4 late identical submissions",
            recovered=executions == 1 and identical and cached == 4,
            byte_identical=identical,
            detail=(
                f"{executions} computation(s) for 12 submissions, "
                f"{cached} late hit(s) served from cache"
            ),
        )
    finally:
        server.shutdown()


def _mode_sigterm(ctx: _ChaosContext) -> ChaosOutcome:
    """SIGTERM mid-job: clean drain, restart resumes byte-identically."""
    state_dir = ctx.workdir / "sigterm"
    server = _Server(state_dir, workers=1, timeout=ctx.timeout)
    job = _slow_job(ctx.seed + 2)
    status, _, document = server.submit(job)
    if status != 202:
        server.shutdown()
        return _failed("sigterm", f"submit got HTTP {status}")
    job_id = document["job"]["id"]
    if not server.wait_progress(job_id, chunks=1, timeout=30.0):
        server.shutdown()
        return _failed("sigterm", "no checkpoint landed before the fault")
    rc, stderr = server.sigterm()
    drained = rc == 0 and "service: drained" in stderr
    # A restarted server on the same state dir must resume the job.
    server2 = _Server(state_dir, workers=1, timeout=ctx.timeout)
    try:
        final = server2.wait_state(job_id, ("done",), timeout=60.0)
        resumed = final is not None and final["requeues"] >= 1
        status, _, payload = server2.request(
            "GET", f"/v1/jobs/{job_id}/result"
        )
        identical = status == 200 and payload == ctx.reference(
            _job_argv(job)
        )
        return ChaosOutcome(
            mode="sigterm",
            fault="SIGTERM mid-job (drain grace 0)",
            recovered=drained and resumed and identical,
            byte_identical=identical,
            detail=(
                f"drain exit clean: {'yes' if drained else 'NO'}, "
                f"restart resumed the job: {'yes' if resumed else 'NO'}"
            ),
        )
    finally:
        server2.shutdown()


def _mode_kill9(ctx: _ChaosContext) -> ChaosOutcome:
    """SIGKILL server + child (power loss): journal/checkpoints recover."""
    state_dir = ctx.workdir / "kill9"
    server = _Server(state_dir, workers=1, timeout=ctx.timeout)
    job = _slow_job(ctx.seed + 3)
    status, _, document = server.submit(job)
    if status != 202:
        server.shutdown()
        return _failed("kill9", f"submit got HTTP {status}")
    job_id = document["job"]["id"]
    if not server.wait_progress(job_id, chunks=1, timeout=30.0):
        server.shutdown()
        return _failed("kill9", "no checkpoint landed before the fault")
    killed = server.kill9()
    server2 = _Server(state_dir, workers=1, timeout=ctx.timeout)
    try:
        final = server2.wait_state(job_id, ("done",), timeout=90.0)
        resumed = final is not None and final["outcome"] == "resumed"
        status, _, payload = server2.request(
            "GET", f"/v1/jobs/{job_id}/result"
        )
        identical = status == 200 and payload == ctx.reference(
            _job_argv(job)
        )
        return ChaosOutcome(
            mode="kill9",
            fault="SIGKILL of server and job child mid-run",
            recovered=resumed and identical and bool(killed),
            byte_identical=identical,
            detail=(
                f"child killed too: {'yes' if killed else 'NO'}, "
                f"journal recovery resumed the job: "
                f"{'yes' if resumed else 'NO'}"
            ),
        )
    finally:
        server2.shutdown()


def _mode_tamper(ctx: _ChaosContext) -> ChaosOutcome:
    """A bit-flipped cached artifact is quarantined, never served."""
    state_dir = ctx.workdir / "tamper"
    server = _Server(state_dir, workers=1, timeout=ctx.timeout)
    try:
        job = _fast_job(ctx.seed + 4)
        status, _, document = server.submit(job)
        if status != 202:
            return _failed("tamper", f"submit got HTTP {status}")
        if server.wait_state(
            document["job"]["id"], ("done",), timeout=60.0
        ) is None:
            return _failed("tamper", "setup job never completed")
        # Flip one bit in the cached payload on disk.
        payloads = sorted(state_dir.glob("cache/*.bin"))
        if len(payloads) != 1:
            return _failed(
                "tamper", f"expected 1 cached payload, found {len(payloads)}"
            )
        blob = bytearray(payloads[0].read_bytes())
        blob[len(blob) // 2] ^= 0x01
        payloads[0].write_bytes(bytes(blob))
        # A new identical submission must detect the corruption and
        # recompute rather than serve the tampered bytes.
        status, _, redo = server.submit(job)
        if redo.get("status") == "cached":
            return _failed("tamper", "tampered artifact served from cache")
        redo_id = redo["job"]["id"]
        if server.wait_state(redo_id, ("done",), timeout=60.0) is None:
            return _failed("tamper", "recompute job never completed")
        status, _, payload = server.request(
            "GET", f"/v1/jobs/{redo_id}/result"
        )
        identical = status == 200 and payload == ctx.reference(
            _job_argv(job)
        )
        quarantined = len(list(state_dir.glob("cache/*.corrupt*")))
        return ChaosOutcome(
            mode="tamper",
            fault="one bit flipped in a cached artifact",
            recovered=identical and quarantined >= 1,
            byte_identical=identical,
            quarantined=quarantined,
            detail=(
                f"{quarantined} corrupt file(s) quarantined, artifact "
                f"recomputed: {'yes' if identical else 'NO'}"
            ),
        )
    finally:
        server.shutdown()


#: Every fault mode, in report order.
_MODE_RUNNERS = {
    "kill": _mode_kill,
    "hang": _mode_hang,
    "corrupt": _mode_corrupt,
    "disk-full": _mode_disk_full,
    "deadline": _mode_deadline,
    "overload": _mode_overload,
    "dup-storm": _mode_dup_storm,
    "sigterm": _mode_sigterm,
    "kill9": _mode_kill9,
    "tamper": _mode_tamper,
}

CHAOS_MODES = tuple(_MODE_RUNNERS)


def run_chaos_suite(
    modes: Sequence[str] = CHAOS_MODES,
    workdir: Optional[Path] = None,
    seed: int = 2004,
    timeout: float = 300.0,
    echo=None,
) -> List[ChaosOutcome]:
    """Inject each fault mode in turn; clean references run once each."""
    for mode in modes:
        if mode not in _MODE_RUNNERS:
            raise ValueError(
                f"unknown chaos mode {mode!r}; valid: {CHAOS_MODES}"
            )
    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = _ChaosContext(workdir, seed=seed, timeout=timeout)
    outcomes: List[ChaosOutcome] = []
    for mode in modes:
        outcome = _MODE_RUNNERS[mode](ctx)
        outcomes.append(outcome)
        if echo is not None:
            status = "RECOVERED" if outcome.recovered else "FAILED"
            echo(f"{mode:>10}  {status:<10} {outcome.detail}")
    return outcomes


def chaos_exec_report(outcomes: Sequence[ChaosOutcome]) -> str:
    """The deterministic fixed-width report CI byte-compares."""
    from repro.experiments.report import format_table

    rows = []
    for o in outcomes:
        reused = (
            f"{o.reused_chunks}/{o.total_chunks}"
            if o.reused_chunks >= 0
            else "-"
        )
        rows.append(
            (
                o.mode,
                o.fault,
                "yes" if o.recovered else "NO",
                "yes" if o.byte_identical else "NO",
                reused,
                str(o.quarantined),
                o.detail,
            )
        )
    return format_table(
        (
            "mode",
            "injected fault",
            "recovered",
            "identical",
            "reused",
            "quarantined",
            "detail",
        ),
        rows,
    )
