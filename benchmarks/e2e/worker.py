"""Child process of the end-to-end benchmark: one workload, one run.

``run.py`` starts this module with a fresh ``REPRO_KERNEL_CACHE`` and
times it from process start until it writes its ``ready`` line: that is
set-up (interpreter start, imports, the C-kernel build, warm-up).  The
child then runs untraced timed passes until ``--seconds`` have passed,
each also rescaled to the reference host speed (``reference.py``),
checks every output, optionally runs one traced pass, and writes one
``result`` line.  Protocol lines go to the original standard output;
anything the library prints is sent to standard error instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e.layers import (
    PARENT_ROOT_NS,
    WORKER_ROOT_NS,
    LayerTracer,
    format_layer_table,
    layer_stats,
)
from benchmarks.e2e.reference import SpeedGauge
from benchmarks.e2e.workloads import WORKLOADS, digest, golden_problems
from repro.kernels import get_provider
from repro.obs import Observer, observing

#: Largest share of a traced pass that may go unattributed (residual),
#: and largest slowdown tracing may cause; beyond either, the per-layer
#: split no longer describes the untraced pass.
TRACE_LIMIT = 0.15

#: ``sim.*`` metric units, in the order every workload reports them.
SIM_UNITS = {
    "instructions": "count",
    "faults_injected": "count",
    "cycles": "cycles",
    "pixel_accuracy": "ratio",
    "quarantines": "count",
    "readmissions": "count",
    "availability": "ratio",
}


def peak_rss_mb(jobs: int) -> float:
    """This process's peak RSS, or its pool workers' if larger.

    Reaped children count only on a pooled workload (``jobs > 1``):
    elsewhere the only child is the C compiler run during set-up.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _checked(workload, seed: int, outputs) -> List[List[str]]:
    """Workload checks plus golden digests; a raising check fails all."""
    try:
        found = workload.check(seed, outputs)
        golden = golden_problems(workload, seed, outputs)
    except Exception:
        return [[traceback.format_exc()] for _ in outputs]
    return [a + b for a, b in zip(found, golden)]


def timed_passes(workload, seed: int, seconds: float):
    """Untraced passes until ``seconds`` have elapsed and at least
    ``workload.passes`` have run.

    Returns every pass's wall time, the same rescaled to the reference
    host speed (see ``reference.py``), the traceback of each pass that
    raised (by index), and the other passes' ``(seed, index, output)``.
    """
    walls: List[float] = []
    scaled: List[float] = []
    errors: Dict[int, str] = {}
    outputs = []
    start = time.perf_counter()
    index = 0
    with SpeedGauge() as gauge:
        while True:
            pass_seed = workload.pass_seed(seed, index)
            mark = gauge.mark()
            t0 = time.perf_counter()
            try:
                output = workload.run(pass_seed, index)
            except Exception:
                errors[index] = traceback.format_exc()
            else:
                outputs.append((pass_seed, index, output))
            walls.append(time.perf_counter() - t0)
            scaled.append(gauge.rescale(walls[-1], mark))
            index += 1
            if index >= workload.passes and time.perf_counter() - start >= seconds:
                return walls, scaled, errors, outputs


def traced_pass(
    workload,
    seed: int,
    untraced_digest: Optional[str],
    untraced_scaled: List[float],
    trace_dir: Optional[Path] = None,
) -> Tuple[Dict[str, Tuple[float, str]], List[str], List[str]]:
    """Pass 0 again under the layer tracer.

    Returns the per-layer metrics as ``{name: (value, unit)}``, the
    problems found and the warnings.  A problem fails the pass: a failed
    check, an output that differs from the untraced pass 0 (the
    never-perturb contract), dropped trace events, or a residual above
    :data:`TRACE_LIMIT` of the traced pass.  A traced pass more than
    :data:`TRACE_LIMIT` slower than the slowest untraced one is only a
    warning: ``trace_overhead`` is one traced pass against untraced
    ones, and host noise can move a single pass by more than that.
    Both sides of that comparison are rescaled to the reference host
    speed; the residual is in wall time, like the spans.
    """
    pass_seed = workload.pass_seed(seed, 0)
    obs = Observer()
    problems: List[str] = []
    with SpeedGauge() as gauge, observing(obs), LayerTracer():
        mark = gauge.mark()
        t0 = time.perf_counter()
        try:
            output = workload.run(pass_seed, 0)
        except Exception:
            output = None
            problems.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        scaled = gauge.rescale(wall, mark)
    counters = obs.metrics.snapshot()["counters"]
    layers = layer_stats(counters)
    worker_busy = counters.get(WORKER_ROOT_NS, 0) / 1e9
    # Root spans' durations are exactly the sum of all self times in
    # this process, so the residual is the time no layer accounts for.
    residual = wall - counters.get(PARENT_ROOT_NS, 0) / 1e9
    overhead = scaled / statistics.median(untraced_scaled) - 1.0
    if output is not None:
        problems += _checked(workload, seed, [(pass_seed, 0, output)])[0]
        if digest(workload.render(output)) != untraced_digest:
            problems.append("traced output differs from untraced pass 0")
    if obs.trace.dropped:
        problems.append(f"trace dropped {obs.trace.dropped} events")
    if residual > TRACE_LIMIT * wall:
        problems.append(
            f"residual {residual:.4f}s is over {TRACE_LIMIT:.0%} of the "
            f"traced pass ({wall:.4f}s)"
        )
    warnings: List[str] = []
    slowest = max(untraced_scaled)
    if scaled > (1.0 + TRACE_LIMIT) * slowest:
        warnings.append(
            f"tracing slowed the pass to {scaled:.4f}s, over {TRACE_LIMIT:.0%} "
            f"above the slowest untraced pass ({slowest:.4f}s)"
        )

    metrics: Dict[str, Tuple[float, str]] = {}
    for name, s in layers.items():
        metrics[f"{name}.calls"] = (s.calls, "count")
        metrics[f"{name}.total_s"] = (s.total_s, "s")
        metrics[f"{name}.self_s"] = (s.self_s, "s")
    executor_s = layers["perf.executor.run"].total_s
    metrics["perf.executor.worker_busy_s"] = (worker_busy, "s")
    metrics["perf.executor.utilisation"] = (
        worker_busy / (executor_s * workload.jobs)
        if worker_busy and executor_s else 0.0,
        "ratio",
    )
    metrics["residual_s"] = (residual, "s")
    metrics["trace_overhead"] = (overhead, "ratio")
    # A traced pass that raised is already a failure; report zero counts.
    counts = dict.fromkeys(SIM_UNITS, 0)
    if output is not None:
        counts = workload.sim_counts(output, counters)
    for name, value in counts.items():
        metrics[f"sim.{name}"] = (value, SIM_UNITS[name])

    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        table = format_layer_table(layers, wall, residual)
        (trace_dir / f"{workload.name}.layers.txt").write_text(
            f"{workload.name}: traced pass {wall:.4f}s, pool workers busy "
            f"{worker_busy:.4f}s\n{table}\n"
        )
        with open(trace_dir / f"{workload.name}.trace.json", "w") as f:
            json.dump(obs.trace.to_chrome_trace(), f)
    return metrics, problems, warnings


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    trace_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """One run after set-up: timed passes, checks, optional traced pass."""
    walls, scaled, errors, outputs = timed_passes(workload, seed, seconds)
    rss = peak_rss_mb(workload.jobs)
    problems = {index: [error] for index, error in errors.items()}
    for (_seed, index, _output), found in zip(
        outputs, _checked(workload, seed, outputs)
    ):
        problems[index] = found
    failed = sum(1 for found in problems.values() if found)
    result: Dict[str, object] = {
        "pass_s": scaled,
        "pass_wall_s": walls,
        "peak_rss_mb": rss,
        "attempted": len(walls),
        "failed": failed,
        "problems": [p for found in problems.values() for p in found],
        "warnings": [],
    }
    if trace:
        first = next((o for _s, i, o in outputs if i == 0), None)
        metrics, traced_problems, result["warnings"] = traced_pass(
            workload,
            seed,
            None if first is None else digest(workload.render(first)),
            scaled,
            trace_dir,
        )
        result["layers"] = metrics
        result["attempted"] = len(walls) + 1
        result["failed"] = failed + bool(traced_problems)
        result["problems"] += traced_problems
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="exit after set-up (one more set-up time sample)",
    )
    args = parser.parse_args(argv)

    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def send(message: Dict[str, object]) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    workload = WORKLOADS[args.workload]
    # Build the C kernel into the empty cache even where the workload
    # never asks for it (report runs on the batched tier), so set-up
    # always includes the build.
    get_provider()
    workload.warm_up(args.seed)
    send({"event": "ready"})
    if args.setup_only:
        return 0
    result = measure(
        workload, args.seed, args.seconds, bool(args.trace), args.trace_dir
    )
    send({"event": "result", **result})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
