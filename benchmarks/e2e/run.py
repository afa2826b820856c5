"""End-to-end benchmark of the NanoBox reproduction.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                  [--trace 0|1] [--out FILE] [--trace-dir DIR]

``PYTHONPATH=src python -m benchmarks.e2e.run`` works too.  With
``--workload`` it runs one workload and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``metrics`` holds every ``end_to_end`` metric of ``BENCHMARK.json``
(``--trace 0``) or every ``per_layer`` one (``--trace 1``).  Without
``--workload`` it runs all of them and prints every metric, prefixed
with the workload name.

Each workload runs in its own child process (``worker.py``).  Set-up
time is taken from process start to the first timed pass, over
:data:`SETUP_SAMPLES` fresh processes, each with an empty C-kernel
cache, and the median is reported.  The last process then measures.
The script binds itself and its children to one CPU, and every time it
reports is rescaled to a reference speed of that CPU (``reference.py``).
This script imports nothing from the library, so it stays runnable
when the library is broken or missing, and it exits nonzero then.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

if str(ROOT) not in sys.path:  # run as a script rather than with -m
    sys.path.insert(0, str(ROOT))
from benchmarks.e2e.reference import SpeedGauge, pin_to_current_cpu  # noqa: E402

#: Set-up samples per run; the last one also measures.
SETUP_SAMPLES = 3

DEFAULT_SEED = 2004

#: Wall-clock budget for one workload, below the 180 s a run may take.
WORKLOAD_BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    """A child process failed or broke the protocol."""


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    trace_dir: Optional[Path],
    scratch: Path,
    measuring: bool,
    deadline: float,
) -> Tuple[float, Optional[Dict[str, object]]]:
    """Start one worker; return its set-up time and, if measuring, result."""
    scratch.mkdir(parents=True)
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if not measuring:
        cmd.append("--setup-only")
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
        REPRO_KERNEL_CACHE=str(scratch),
        TMPDIR=str(scratch),
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    # Samples this CPU's speed during set-up only: the child measures
    # its passes with its own gauge.
    gauge = SpeedGauge()
    gauge.start()
    timer = threading.Timer(
        max(1.0, deadline - time.perf_counter()), _kill_group, (proc,)
    )
    timer.start()
    try:
        try:
            ready = proc.stdout.readline()
            setup_s = gauge.rescale(time.perf_counter() - start, 0)
        finally:
            gauge.stop()
        result_line = proc.stdout.readline() if measuring else ""
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        _kill_group(proc)  # pool workers a crashed child may leave behind
        proc.wait()
    if code != 0:
        raise BenchmarkError(f"{workload} worker exited with status {code}")
    _message(ready, "ready")
    return setup_s, _message(result_line, "result") if measuring else None


def _message(line: str, event: str) -> Dict[str, object]:
    """One protocol line from a worker, which must be ``event``."""
    try:
        message = json.loads(line)
    except ValueError:
        message = None
    if not isinstance(message, dict) or message.get("event") != event:
        raise BenchmarkError(f"worker sent {line!r}, expected {event!r}")
    return message


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    trace_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """Set-up samples plus one measured run of one workload."""
    deadline = time.perf_counter() + WORKLOAD_BUDGET_S
    # Kernel caches and temporary files; the benchmark writes only
    # inside its own checkout.
    run_dir = Path(tempfile.mkdtemp(prefix=f".scratch-{workload}-", dir=HERE))
    try:
        setups: List[float] = []
        result: Optional[Dict[str, object]] = None
        for k in range(SETUP_SAMPLES):
            measuring = k == SETUP_SAMPLES - 1
            setup_s, result = _run_child(
                workload, seed, seconds, trace, trace_dir,
                run_dir / f"child{k}", measuring, deadline,
            )
            setups.append(setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    assert result is not None
    return {"setup_s": setups, **result}


def end_to_end(run: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of one run: medians over its samples."""
    return {
        "pass_s": (statistics.median(run["pass_s"]), "s"),
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def contract_metrics(
    run: Dict[str, object], declared: List[Dict[str, str]], prefix: str = ""
) -> Dict[str, Dict[str, object]]:
    """Exactly the ``declared`` metrics, with units checked against them."""
    measured = dict(end_to_end(run), **run.get("layers", {}))
    out: Dict[str, Dict[str, object]] = {}
    for spec in declared:
        if spec["name"] not in measured:
            raise BenchmarkError(f"metric {spec['name']} was not measured")
        value, unit = measured[spec["name"]]
        if unit != spec["unit"]:
            raise BenchmarkError(
                f"metric {spec['name']} is in {unit}, declared {spec['unit']}"
            )
        out[prefix + spec["name"]] = {"value": value, "unit": unit}
    return out


def describe(workload: str, run: Dict[str, object]) -> str:
    """Human-readable lines: every metric with its quartiles and n."""
    lines = [f"== {workload}: {run['attempted']} passes, {run['failed']} failed"]
    for name in ("pass_s", "pass_wall_s", "setup_s"):
        samples = run[name]
        q1, median, q3 = quartiles(samples)
        lines.append(
            f"  {name:<14} {median:10.4f} s   q1 {q1:.4f}  q3 {q3:.4f}  "
            f"n={len(samples)}"
        )
    lines.append(f"  {'peak_rss_mb':<14} {run['peak_rss_mb']:10.1f} MB")
    lines.append(
        f"  {'fail_rate':<14} {run['failed'] / run['attempted']:10.4f}"
    )
    for name, (value, unit) in run.get("layers", {}).items():
        if isinstance(value, float):
            lines.append(f"  {name:<40} {value:14.6f} {unit}")
        else:
            lines.append(f"  {name:<40} {value:14} {unit}")
    for problem in run["problems"]:
        lines.append(f"  FAILED CHECK: {problem}")
    for warning in run["warnings"]:
        lines.append(f"  WARNING: {warning}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark; see benchmarks/e2e/README.md."
    )
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; have {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace_dir = args.trace_dir.resolve() if args.trace_dir else None
    pin_to_current_cpu()

    runs: Dict[str, Dict[str, object]] = {}
    metrics: Dict[str, Dict[str, object]] = {}
    try:
        for name in [args.workload] if args.workload else names:
            run = runs[name] = run_workload(
                name, args.seed, seconds, args.trace, trace_dir
            )
            print(describe(name, run), flush=True)
            prefix = "" if args.workload else f"{name}."
            metrics.update(contract_metrics(run, declared, prefix))
            if args.trace and not args.workload:
                metrics.update(contract_metrics(run, spec["end_to_end"], prefix))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.write_text(
            json.dumps({"seed": args.seed, "runs": runs, **summary}, indent=2)
            + "\n"
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
