"""Command-line interface.

Everything the library can regenerate, from a shell::

    nanobox-repro table1                  # the ISA table
    nanobox-repro table2                  # variants + fault-site counts
    nanobox-repro area                    # ~9x overhead table
    nanobox-repro fit --variant aluss     # percent -> FIT translation
    nanobox-repro describe aluts          # NanoBox hierarchy tree
    nanobox-repro sweep --figure 7        # regenerate a figure (--quick)
    nanobox-repro grid --rows 4 --cols 4 --workload hue_shift \
        --kill 1,1@40 --fault-percent 1   # full-system run
    nanobox-repro yield --density 1e-3    # manufacturing-yield table
    nanobox-repro chaos --rates 0 0.003   # link-fault transport sweep
    nanobox-repro lifecycle --jobs 6      # self-healing policy sweep
    nanobox-repro report --quick          # the whole EXPERIMENTS report

The experiment-running subcommands (``sweep``, ``grid``, ``chaos``,
``lifecycle``, ``report``) also take observability flags::

    nanobox-repro lifecycle --metrics out.json --trace out.jsonl --obs-report
    nanobox-repro grid --kill 1,1@40 --chrome-trace trace.json
    nanobox-repro sweep --quick --manifest run.json
    nanobox-repro replay run.json

which install a :mod:`repro.obs` observer for the run, write the metrics
registry as JSON / the trace event log as JSON Lines / a
Perfetto-compatible Chrome trace (open it at ui.perfetto.dev), print the
ASCII observability summary, or record an exact-replay manifest.
Observability never changes results: the command's primary output is
bit-identical with or without these flags, which is exactly what
``replay`` asserts (byte-for-byte) against a recorded manifest.

The benchmark harness lives under ``bench``::

    nanobox-repro bench run --smoke --filter 'perf_*'
    nanobox-repro bench compare results/bench_baseline results/bench

emitting one schema-versioned ``BENCH_<name>.json`` per benchmark script
and diffing two artifact sets with per-metric regression thresholds.

``sweep``/``grid``/``chaos``/``lifecycle`` are additionally
crash-safe: ``--checkpoint-dir`` stores completed work chunks durably,
``--resume`` completes an interrupted run with byte-identical stdout,
and ``--deadline SECS`` degrades to an explicit partial report (exit
status 3) that a later ``--resume`` finishes::

    nanobox-repro sweep --checkpoint-dir ck            # interruptible
    nanobox-repro sweep --checkpoint-dir ck --resume   # finish the rest
    nanobox-repro chaos-exec                           # prove it: ten real
                                                       # faults against runs
                                                       # and the service

Also available as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple


class _Tee(io.TextIOBase):
    """Write-through stream: mirrors writes to every underlying stream."""

    def __init__(self, *streams) -> None:
        self._streams = streams

    def write(self, text: str) -> int:
        for stream in self._streams:
            stream.write(text)
        return len(text)

    def flush(self) -> None:
        for stream in self._streams:
            stream.flush()


#: The parser's choices, kept literal so that building it loads no ALU,
#: fault or kernel code: they mirror ``repro.alu.variants.variant_names()``
#: (in Table 2 order) and ``repro.kernels.BACKENDS``.
VARIANT_CHOICES = (
    "aluncmos", "alunh", "alunn", "aluns",
    "aluscmos", "alush", "alusn", "aluss",
    "alutcmos", "aluth", "alutn", "aluts",
)
BACKEND_CHOICES = ("scalar", "batched", "compiled", "auto")


def _backend_from_env(default: Optional[str] = None) -> Optional[str]:
    """The ``REPRO_BACKEND`` selection, validated; ``default`` if unset."""
    value = os.environ.get("REPRO_BACKEND")
    if not value:
        return default
    if value not in BACKEND_CHOICES:
        raise ValueError(
            f"REPRO_BACKEND={value!r} is not a backend; "
            f"valid: {BACKEND_CHOICES}"
        )
    return value


#: Exit status for a well-formed partial result (deadline hit or chunks
#: dead-lettered): distinguishable from success (0) and real failure (1).
EXIT_INCOMPLETE = 3


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared crash-safety / budget flags."""
    group = parser.add_argument_group("resilience")
    group.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="durably checkpoint completed work chunks "
                            "under DIR (content-addressed by the run "
                            "configuration)")
    group.add_argument("--resume", action="store_true",
                       help="reuse valid checkpoints from --checkpoint-dir; "
                            "the resumed output is byte-identical to an "
                            "uninterrupted run")
    group.add_argument("--deadline", type=float, default=None, metavar="SECS",
                       help="wall-clock budget; on expiry the run stops "
                            "scheduling work and reports an explicit "
                            f"partial result (exit {EXIT_INCOMPLETE})")
    group.add_argument("--checkpoint-chunk-size", type=int, default=4,
                       metavar="N", help="tasks per checkpointed chunk")
    group.add_argument("--chunk-timeout", type=float, default=None,
                       metavar="SECS",
                       help="per-chunk hung-worker timeout (parallel "
                            "runs only): a wedged worker is killed and "
                            "its chunk re-run in a fresh pool")


def _runtime_from_args(args: argparse.Namespace):
    """The ResilientRuntime the flags ask for, or None for the
    plain (pre-existing, flag-free) execution path."""
    wanted = (
        args.checkpoint_dir is not None
        or args.resume
        or args.deadline is not None
        or args.chunk_timeout is not None
    )
    if not wanted:
        return None
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        raise SystemExit(2)
    from pathlib import Path

    from repro.perf import ResilientRuntime

    return ResilientRuntime(
        checkpoint_dir=(
            Path(args.checkpoint_dir) if args.checkpoint_dir else None
        ),
        resume=args.resume,
        deadline=args.deadline,
        chunk_size=args.checkpoint_chunk_size,
        chunk_timeout=args.chunk_timeout,
    )


def _emit_resilience_note(outcome) -> None:
    """Recovery accounting goes to stderr: stdout stays byte-identical."""
    from repro.perf import resilience_note

    print(resilience_note(outcome), file=sys.stderr)


def _incomplete_banner(outcome) -> str:
    """The explicit partial-result banner (deterministic content)."""
    reasons = []
    if outcome.deadline_hit:
        reasons.append(
            f"deadline hit with {outcome.skipped_chunks} chunk(s) "
            f"unscheduled"
        )
    if outcome.dead_letters:
        reasons.append(f"{len(outcome.dead_letters)} chunk(s) dead-lettered")
    reason = "; ".join(reasons) or "some tasks missing"
    return (
        f"INCOMPLETE: {len(outcome.missing_tasks)} of "
        f"{len(outcome.results)} task(s) not computed ({reason}); "
        f"re-run with --resume and the same --checkpoint-dir to continue"
    )


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability / provenance flags."""
    group = parser.add_argument_group("observability")
    group.add_argument("--metrics", default=None, metavar="PATH",
                       help="write the run's metrics registry as JSON")
    group.add_argument("--trace", default=None, metavar="PATH",
                       help="write the run's trace events as JSON Lines")
    group.add_argument("--chrome-trace", default=None, metavar="PATH",
                       help="write the run's trace as a Chrome trace "
                            "event file (open in ui.perfetto.dev)")
    group.add_argument("--obs-report", action="store_true",
                       help="print the ASCII observability summary "
                            "(top timers, counters, lifecycle timeline)")
    group.add_argument("--manifest", default=None, metavar="PATH",
                       help="record an exact-replay manifest (re-run and "
                            "verify with: nanobox-repro replay PATH)")


def _run_with_observability(args: argparse.Namespace) -> int:
    """Run the selected subcommand, observed if any obs flag was given.

    With no observability flags the command runs against the null
    observer -- the exact same code path and output as before the flags
    existed.  With flags, an observer is installed for the run and its
    registry/trace are exported afterwards; the command's own stdout is
    unchanged either way (observability never perturbs results).

    ``--manifest`` additionally tees the command's primary stdout into a
    buffer and records its SHA-256 (plus the exact argv and provenance)
    so ``nanobox-repro replay`` can later assert a byte-identical re-run.
    """
    wants_observer = (
        args.metrics or args.trace or args.chrome_trace or args.obs_report
    )
    if not (wants_observer or args.manifest):
        return args.fn(args)
    from contextlib import ExitStack, redirect_stdout

    capture = io.StringIO() if args.manifest else None
    with ExitStack() as stack:
        if wants_observer:
            from repro.obs import Observer, observing

            obs = Observer()
            stack.enter_context(observing(obs))
        if capture is not None:
            stack.enter_context(redirect_stdout(_Tee(sys.stdout, capture)))
        status = args.fn(args)
    if args.manifest:
        from repro.obs.manifest import build_manifest, write_manifest

        manifest = build_manifest(
            command=args.command,
            argv=getattr(args, "run_argv", []),
            output_text=capture.getvalue(),
            exit_status=status,
            seed=getattr(args, "seed", None),
        )
        write_manifest(manifest, args.manifest)
        print(f"wrote replay manifest to {args.manifest}")
    if args.metrics:
        from repro.ioutil import atomic_write_text

        atomic_write_text(args.metrics, obs.metrics.to_json() + "\n")
        print(f"wrote metrics JSON to {args.metrics}")
    if args.trace:
        written = obs.trace.to_jsonl(args.trace)
        print(f"wrote {written} trace event(s) to {args.trace}")
    if args.chrome_trace:
        from repro.obs.chrome import write_chrome_trace

        written = write_chrome_trace(obs.trace, args.chrome_trace)
        print(
            f"wrote {written} chrome trace event(s) to {args.chrome_trace} "
            f"(open in ui.perfetto.dev)"
        )
    if args.obs_report:
        from repro.obs import report_metrics

        print()
        print(report_metrics(obs), end="")
    return status


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1_text

    print(table1_text())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table2_text

    text = table2_text()
    print(text)
    return 0 if "MISMATCH" not in text else 1


def _cmd_area(args: argparse.Namespace) -> int:
    from repro.experiments.area import area_table_text

    print(area_table_text())
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.experiments.fit_table import fit_table_text

    print(fit_table_text(args.variant))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.alu.variants import TABLE2_SITE_COUNTS, variant_spec
    from repro.core.hierarchy import describe_unit, render_tree

    spec = variant_spec(args.variant)
    print(f"{spec.name}: {spec.description}")
    print(f"fault-injection sites: {TABLE2_SITE_COUNTS[spec.name]}")
    print()
    print(render_tree(describe_unit(spec.build())))
    return 0


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    """Attach the evaluation-tier flag shared by the simulation commands.

    The default comes from the ``REPRO_BACKEND`` environment variable
    (already validated by :func:`build_parser`), else ``auto``; an
    explicit flag wins.  Every tier is bit-identical -- the choice only
    affects speed.
    """
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=_backend_from_env("auto"),
        help="evaluation tier: scalar, batched (NumPy), compiled "
             "(native kernel; falls back with a warning if unavailable), "
             "or auto (fastest available); default honours $REPRO_BACKEND, "
             "else auto",
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.figures import PAPER_FAULT_PERCENTAGES, run_figure

    percents: Sequence[float]
    if args.quick:
        percents = (0, 0.5, 1, 3, 9, 30, 75)
        trials = 2
    else:
        percents = PAPER_FAULT_PERCENTAGES
        trials = args.trials
    runtime = _runtime_from_args(args)
    if runtime is None:
        result = run_figure(
            f"figure{args.figure}",
            fault_percents=percents,
            trials_per_workload=trials,
            seed=args.seed,
            jobs=args.jobs,
            backend=args.backend,
        )
    else:
        from repro.experiments.figures import (
            partial_figure_text,
            run_figure_resilient,
        )

        run = run_figure_resilient(
            f"figure{args.figure}",
            runtime,
            fault_percents=percents,
            trials_per_workload=trials,
            seed=args.seed,
            jobs=args.jobs,
            backend=args.backend,
        )
        _emit_resilience_note(run.outcome)
        result = run.figure
        if result is None:
            print(partial_figure_text(run))
            print()
            print(_incomplete_banner(run.outcome))
            return EXIT_INCOMPLETE
    if args.chart:
        from repro.experiments.ascii_chart import figure_chart

        print(figure_chart(result))
    else:
        print(result.to_text())
    print(f"\nmax per-point stddev: {result.max_stddev():.2f} points")
    if args.json:
        from repro.experiments.export import figure_to_json
        from repro.ioutil import atomic_write_text

        atomic_write_text(args.json, figure_to_json(result))
        print(f"wrote JSON export to {args.json}")
    return 0


def _parse_kill(spec: str) -> Tuple[int, Tuple[int, int]]:
    """Parse ``row,col@cycle`` into ``(cycle, (row, col))``."""
    try:
        coords, cycle = spec.split("@")
        row, col = coords.split(",")
        return int(cycle), (int(row), int(col))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad --kill spec {spec!r}; expected row,col@cycle"
        ) from None


def _cmd_grid(args: argparse.Namespace) -> int:
    runtime = _runtime_from_args(args)
    if runtime is None:
        return _grid_run(args)
    from contextlib import redirect_stdout
    from dataclasses import replace

    from repro.perf import ResilientRunner

    # A grid run is one indivisible simulation, so the checkpoint unit
    # is the whole report: a single chunk whose payload is the exact
    # stdout plus the exit status.  Resuming replays those bytes.
    config = {
        "experiment": "grid-run",
        "rows": args.rows,
        "cols": args.cols,
        "scheme": args.scheme,
        "workload": args.workload,
        "image_size": args.image_size,
        "fault_percent": args.fault_percent,
        "kill": sorted(
            [cycle, list(coord)] for cycle, coord in (args.kill or [])
        ),
        "adaptive": args.adaptive,
        "rounds": args.rounds,
        "seed": args.seed,
        "show_grid": args.show_grid,
    }

    def run_chunk(_index: int, chunk) -> list:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            status = _grid_run(args)
        return [{"stdout": buffer.getvalue(), "exit_status": status}]

    runner = ResilientRunner(
        run_chunk,
        runtime=replace(runtime, chunk_size=1),
        config=config,
        kind="grid-stdout",
    )
    outcome = runner.run([0])
    _emit_resilience_note(outcome)
    if not outcome.complete:
        print(_incomplete_banner(outcome))
        return EXIT_INCOMPLETE
    payload = outcome.results[0]
    sys.stdout.write(payload["stdout"])
    return int(payload["exit_status"])


def _grid_run(args: argparse.Namespace) -> int:
    from repro.faults.mask import ExactFractionMask
    from repro.grid.simulator import GridSimulator
    from repro.workloads import bitmap as bitmaps
    from repro.workloads import imaging

    workload_factories = {
        "reverse_video": imaging.reverse_video,
        "hue_shift": imaging.hue_shift,
        "brightness_boost": imaging.brightness_boost,
        "threshold_mask": imaging.threshold_mask,
    }
    workload = workload_factories[args.workload]()

    kill_schedule: Dict[int, List[Tuple[int, int]]] = {}
    for cycle, coord in (args.kill or []):
        kill_schedule.setdefault(cycle, []).append(coord)

    sim = GridSimulator(
        rows=args.rows,
        cols=args.cols,
        alu_scheme=args.scheme,
        alu_fault_policy=(
            ExactFractionMask(args.fault_percent / 100)
            if args.fault_percent > 0
            else None
        ),
        kill_schedule=kill_schedule,
        adaptive_routing=args.adaptive,
        seed=args.seed,
        backend=args.backend,
    )
    image = bitmaps.gradient(args.image_size, args.image_size)
    outcome = sim.run_image_job(image, workload, max_rounds=args.rounds)

    cycles = outcome.job.cycles
    print(f"workload          : {workload.name} on "
          f"{image.width}x{image.height} pixels")
    print(f"grid              : {args.rows}x{args.cols}, scheme "
          f"{args.scheme}, adaptive={args.adaptive}")
    print(f"cycles            : shift-in {cycles.shift_in} + compute "
          f"{cycles.compute} + shift-out {cycles.shift_out} "
          f"= {cycles.total}")
    print(f"rounds            : {outcome.job.rounds}")
    print(f"failed cells      : {list(outcome.stats.failed_cells) or 'none'}")
    print(f"salvaged / lost   : {outcome.stats.salvaged_words} / "
          f"{outcome.stats.lost_words} words")
    print(f"dropped packets   : {outcome.stats.dropped_packets}")
    buses = sim.grid.bus_statistics()
    print(f"bus utilisation   : mesh {buses.mesh_utilisation * 100:.1f}%, "
          f"edge {buses.edge_utilisation * 100:.1f}%, peak "
          f"{buses.peak_utilisation * 100:.1f}% ({buses.busiest_link})")
    print(f"pixel accuracy    : {outcome.pixel_accuracy * 100:.1f}%")
    if args.show_grid:
        from repro.grid.display import (
            render_grid,
            render_lifecycle,
            render_reachability,
        )

        print()
        print(render_grid(sim.grid))
        print()
        print(render_lifecycle(sim.watchdog))
        print()
        print(render_reachability(sim.grid))
    return 0 if outcome.job.complete else 1


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _probability(text: str) -> float:
    """argparse type: a float within [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be within [0, 1], got {text}")
    return value


def _cmd_yield(args: argparse.Namespace) -> int:
    from repro.experiments.defect_yield import yield_sweep, yield_table_text

    points = yield_sweep(
        variants=tuple(args.variants),
        densities=tuple(args.density),
        n_parts=args.parts,
        seed=args.seed,
    )
    print(yield_table_text(points))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.design_space import (
        MODELLED_SCHEMES,
        fault_budget,
        fit_budget,
    )
    from repro.analysis.system import (
        disagreement_probability,
        expected_instructions_to_disable,
        grid_degradation_horizon,
    )
    from repro.experiments.report import format_table

    rows = []
    for scheme in MODELLED_SCHEMES:
        budget = fault_budget(scheme, args.target)
        detect = disagreement_probability(scheme, args.fault_percent / 100)
        rows.append(
            (
                scheme,
                f"{100 * budget:.3f}%",
                f"{fit_budget(scheme, args.target):.2e}",
                f"{detect:.4f}",
                f"{expected_instructions_to_disable(args.threshold, detect):.0f}",
                grid_degradation_horizon(
                    scheme, args.fault_percent / 100,
                    error_threshold=args.threshold,
                ),
            )
        )
    print(
        f"Closed-form analysis (target {args.target:g}% correct; "
        f"operating point {args.fault_percent:g}% injected; "
        f"watchdog threshold {args.threshold})"
    )
    print(format_table(
        ("scheme", "fault budget", "FIT budget", "P(detect)",
         "mean instr to disable", "90% survival horizon"),
        rows,
    ))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos_fabric import chaos_sweep, chaos_table_text

    runtime = _runtime_from_args(args)
    incomplete = None
    if runtime is None:
        points = chaos_sweep(
            link_rates=tuple(args.rates),
            retry_budgets=tuple(args.rounds),
            drop_rate=args.drop_rate,
            stall_rate=args.stall_rate,
            rows=args.rows,
            cols=args.cols,
            n_instructions=args.instructions,
            seed=args.seed,
            backend=args.backend,
        )
    else:
        from repro.experiments.chaos_fabric import chaos_sweep_resilient

        outcome = chaos_sweep_resilient(
            runtime,
            link_rates=tuple(args.rates),
            retry_budgets=tuple(args.rounds),
            drop_rate=args.drop_rate,
            stall_rate=args.stall_rate,
            rows=args.rows,
            cols=args.cols,
            n_instructions=args.instructions,
            seed=args.seed,
            backend=args.backend,
        )
        _emit_resilience_note(outcome)
        points = [p for p in outcome.results if p is not None]
        if not outcome.complete:
            incomplete = outcome
    print(
        f"Link-fault chaos sweep ({args.rows}x{args.cols} grid, "
        f"{args.instructions} instructions, drop {args.drop_rate:g}, "
        f"stall {args.stall_rate:g})"
    )
    print(chaos_table_text(points))
    if incomplete is not None:
        print()
        print(_incomplete_banner(incomplete))
        return EXIT_INCOMPLETE
    return 0


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    from repro.experiments.lifecycle import (
        default_processes,
        lifecycle_sweep,
        lifecycle_table_text,
        permanent_policy,
        self_healing_policy,
    )
    from repro.faults.temporal import TemporalFaultProcess

    process_factories = {
        "transient": lambda: TemporalFaultProcess.transient(
            rate=args.rate, errors_per_cycle=2
        ),
        "intermittent": lambda: TemporalFaultProcess.intermittent(
            rate=args.rate, burst_length=args.burst_length, errors_per_cycle=3
        ),
        "permanent": lambda: TemporalFaultProcess.stuck_at(rate=args.rate / 10),
    }
    if args.processes:
        processes = [process_factories[name]() for name in args.processes]
    else:
        processes = list(default_processes())
    policies = (
        permanent_policy(),
        self_healing_policy(heartbeat_decay=args.decay),
    )
    runtime = _runtime_from_args(args)
    incomplete = None
    if runtime is None:
        points = lifecycle_sweep(
            processes,
            policies,
            jobs=args.jobs,
            n_instructions=args.instructions,
            rows=args.rows,
            cols=args.cols,
            seed=args.seed,
            backend=args.backend,
        )
    else:
        from repro.experiments.lifecycle import lifecycle_sweep_resilient

        outcome = lifecycle_sweep_resilient(
            runtime,
            processes,
            policies,
            jobs=args.jobs,
            n_instructions=args.instructions,
            rows=args.rows,
            cols=args.cols,
            seed=args.seed,
            backend=args.backend,
        )
        _emit_resilience_note(outcome)
        points = [p for p in outcome.results if p is not None]
        if not outcome.complete:
            incomplete = outcome
    print(
        f"Cell health lifecycle sweep ({args.rows}x{args.cols} grid, "
        f"{args.jobs} jobs x {args.instructions} instructions, "
        f"seed {args.seed})"
    )
    print(lifecycle_table_text(points))
    if incomplete is not None:
        print()
        print(_incomplete_banner(incomplete))
        return EXIT_INCOMPLETE
    return 0


def _cmd_chaos_exec(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.perf.chaos_exec import chaos_exec_report, run_chaos_suite

    outcomes = run_chaos_suite(
        modes=tuple(args.modes),
        workdir=Path(args.workdir) if args.workdir else None,
        seed=args.seed,
        timeout=args.timeout,
        echo=lambda line: print(line, file=sys.stderr),
    )
    print(chaos_exec_report(outcomes))
    failed = [
        o.mode for o in outcomes if not (o.recovered and o.byte_identical)
    ]
    print(
        f"{len(outcomes)} fault mode(s) injected, {len(failed)} violated "
        f"the recovery invariants"
    )
    if failed:
        print(f"violated: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import CampaignService, ServiceConfig

    config = ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        cache_budget=args.cache_budget,
        max_attempts=args.max_attempts,
        breaker_threshold=args.breaker_threshold,
        chunk_size=args.chunk_size,
        chunk_timeout=args.chunk_timeout,
        job_timeout=args.job_timeout,
        default_deadline=args.default_deadline,
        drain_grace=args.drain_grace,
        verbose=args.verbose,
    )
    return CampaignService(config).serve()


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.bench import run_benchmarks

    out_dir = Path(args.out) if args.out else None
    runs = run_benchmarks(
        filter_glob=args.filter,
        smoke=args.smoke,
        out_dir=out_dir,
        seed=args.seed,
        timeout=args.timeout,
        echo=print,
    )
    if not runs:
        print(f"no benchmarks match {args.filter!r}", file=sys.stderr)
        return 1
    failed = [run.name for run in runs if not run.passed]
    total = sum(run.wall_clock for run in runs)
    print(
        f"{len(runs)} benchmark(s), {len(failed)} failed, "
        f"{total:.1f}s total"
    )
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.compare import compare_paths

    def parse_specs(specs: List[str], flag: str) -> Dict[str, float]:
        parsed: Dict[str, float] = {}
        for spec in specs or []:
            try:
                pattern, _, ratio = spec.partition("=")
                parsed[pattern] = float(ratio)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"bad {flag} spec {spec!r}; expected GLOB=RATIO"
                ) from None
        return parsed

    thresholds = parse_specs(args.threshold_for, "--threshold-for")
    speedup_floors = parse_specs(args.speedup_floor, "--speedup-floor")
    comparisons, warnings, errors = compare_paths(
        Path(args.baseline),
        Path(args.current),
        only=args.only,
        threshold=args.threshold,
        thresholds=thresholds or None,
        min_time=args.min_time,
        speedup_floors=speedup_floors or None,
        require_complete=args.require_complete,
    )
    for comparison in comparisons:
        print(comparison.table_text())
        print()
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    regressions = [d for c in comparisons for d in c.regressions]
    improvements = [d for c in comparisons for d in c.improvements]
    print(
        f"{len(comparisons)} benchmark(s) compared: "
        f"{len(regressions)} regression(s), "
        f"{len(improvements)} improvement(s)"
    )
    for delta in regressions:
        print(
            f"REGRESSION: {delta.name} {delta.ratio:.2f}x "
            f"(limit {delta.threshold:.2f}x)",
            file=sys.stderr,
        )
    return 1 if (regressions or errors or not comparisons) else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.obs.manifest import load_manifest

    manifest = load_manifest(args.manifest_path)
    argv = list(manifest["argv"])
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as tmp:
        replay_manifest_path = str(Path(tmp) / "replay_manifest.json")
        status = main(argv + ["--manifest", replay_manifest_path])
        replayed = load_manifest(replay_manifest_path)
    matches = replayed["output_sha256"] == manifest["output_sha256"]
    same_status = status == manifest["exit_status"]
    if matches and same_status:
        print(
            f"replay OK: output byte-identical to manifest "
            f"(sha256 {manifest['output_sha256'][:16]}..., "
            f"{manifest['output_bytes']} bytes)",
            file=sys.stderr,
        )
        return 0
    if not matches:
        print(
            f"replay MISMATCH: manifest sha256 "
            f"{manifest['output_sha256'][:16]}... "
            f"({manifest['output_bytes']} bytes) vs replayed "
            f"{replayed['output_sha256'][:16]}... "
            f"({replayed['output_bytes']} bytes)",
            file=sys.stderr,
        )
    if not same_status:
        print(
            f"replay MISMATCH: exit status {status} vs recorded "
            f"{manifest['exit_status']}",
            file=sys.stderr,
        )
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import build_report

    report = build_report(quick=args.quick, seed=args.seed, jobs=args.jobs)
    print(report, end="")
    if args.out:
        from repro.ioutil import atomic_write_text

        atomic_write_text(args.out, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanobox-repro",
        description="Recursive NanoBox Processor Grid reproduction toolkit",
    )
    try:
        _backend_from_env()
    except ValueError as exc:
        parser.error(str(exc))  # a usage error (exit 2), not a traceback
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the ISA table").set_defaults(
        fn=_cmd_table1
    )
    sub.add_parser(
        "table2", help="print variants and fault-site counts"
    ).set_defaults(fn=_cmd_table2)
    sub.add_parser("area", help="print the area-overhead table").set_defaults(
        fn=_cmd_area
    )

    fit = sub.add_parser("fit", help="percent -> FIT translation")
    fit.add_argument("--variant", choices=VARIANT_CHOICES, default="aluss",
                     metavar="VARIANT")
    fit.set_defaults(fn=_cmd_fit)

    describe = sub.add_parser("describe", help="show a variant's hierarchy")
    describe.add_argument("variant", choices=VARIANT_CHOICES, metavar="VARIANT")
    describe.set_defaults(fn=_cmd_describe)

    sweep = sub.add_parser("sweep", help="regenerate Figure 7, 8, or 9")
    sweep.add_argument("--figure", type=int, choices=(7, 8, 9), default=7)
    sweep.add_argument("--trials", type=int, default=5,
                       help="trials per workload (paper: 5)")
    sweep.add_argument("--quick", action="store_true")
    sweep.add_argument("--chart", action="store_true",
                       help="render as an ASCII chart instead of a table")
    sweep.add_argument("--json", default=None,
                       help="also write a JSON export to this path")
    sweep.add_argument("--seed", type=int, default=2004)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="campaign worker processes (1 = serial; "
                            "any value gives identical output)")
    _add_observability_args(sweep)
    _add_resilience_args(sweep)
    _add_backend_arg(sweep)
    sweep.set_defaults(fn=_cmd_sweep)

    grid = sub.add_parser("grid", help="run a full-system image job")
    grid.add_argument("--rows", type=int, default=4)
    grid.add_argument("--cols", type=int, default=4)
    grid.add_argument("--scheme", default="tmr",
                      help="cell ALU LUT coding scheme")
    grid.add_argument("--workload", default="reverse_video",
                      choices=("reverse_video", "hue_shift",
                               "brightness_boost", "threshold_mask"))
    grid.add_argument("--image-size", type=int, default=8)
    grid.add_argument("--fault-percent", type=float, default=0.0)
    grid.add_argument("--kill", type=_parse_kill, action="append",
                      metavar="ROW,COL@CYCLE")
    grid.add_argument("--adaptive", action="store_true",
                      help="route around dead cells")
    grid.add_argument("--rounds", type=int, default=3)
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--show-grid", action="store_true",
                      help="render the final fabric state")
    _add_observability_args(grid)
    _add_resilience_args(grid)
    _add_backend_arg(grid)
    grid.set_defaults(fn=_cmd_grid)

    yld = sub.add_parser("yield", help="manufacturing-yield table")
    yld.add_argument("--variants", nargs="+", choices=VARIANT_CHOICES,
                     default=["alunn", "aluns"], metavar="VARIANT")
    yld.add_argument("--density", type=_probability, nargs="+",
                     default=[1e-3])
    yld.add_argument("--parts", type=_positive_int, default=10)
    yld.add_argument("--seed", type=int, default=0)
    yld.set_defaults(fn=_cmd_yield)

    analyze = sub.add_parser("analyze",
                             help="closed-form budgets and horizons")
    analyze.add_argument("--target", type=float, default=98.0,
                         help="target percent-correct")
    analyze.add_argument("--fault-percent", type=float, default=1.0,
                         help="operating injected-fault percentage")
    analyze.add_argument("--threshold", type=int, default=8,
                         help="watchdog error threshold")
    analyze.set_defaults(fn=_cmd_analyze)

    chaos = sub.add_parser(
        "chaos", help="link-fault chaos sweep of the transport fabric"
    )
    chaos.add_argument("--rates", type=float, nargs="+",
                       default=[0.0, 0.001, 0.003, 0.01],
                       help="link bit-flip rates to sweep")
    chaos.add_argument("--rounds", type=int, nargs="+", default=[1, 3],
                       help="retransmit budgets (submission rounds) to sweep")
    chaos.add_argument("--drop-rate", type=float, default=0.0,
                       help="whole-packet drop probability per link")
    chaos.add_argument("--stall-rate", type=float, default=0.0,
                       help="per-cycle link stall probability")
    chaos.add_argument("--rows", type=int, default=3)
    chaos.add_argument("--cols", type=int, default=3)
    chaos.add_argument("--instructions", type=int, default=48)
    chaos.add_argument("--seed", type=int, default=2004)
    _add_observability_args(chaos)
    _add_resilience_args(chaos)
    _add_backend_arg(chaos)
    chaos.set_defaults(fn=_cmd_chaos)

    chaos_exec = sub.add_parser(
        "chaos-exec",
        help="process-level chaos harness: inject crashes, hangs, "
             "corruption, overload and restarts into real child runs and "
             "a real server; assert the recovery invariants",
    )
    # mirrors repro.perf.chaos_exec.CHAOS_MODES (kept literal so the
    # parser builds without importing the harness)
    chaos_modes = ("kill", "hang", "corrupt", "disk-full", "deadline",
                   "overload", "dup-storm", "sigterm", "kill9", "tamper")
    chaos_exec.add_argument("--modes", nargs="+", choices=chaos_modes,
                            default=list(chaos_modes),
                            help="fault modes to inject (default: all)")
    chaos_exec.add_argument("--workdir", default=None, metavar="DIR",
                            help="working directory for child runs and "
                                 "server state (default: a fresh temp "
                                 "directory)")
    chaos_exec.add_argument("--seed", type=int, default=2004,
                            help="seed for the target sweep and jobs")
    chaos_exec.add_argument("--timeout", type=float, default=300.0,
                            help="per-child wall-clock ceiling in seconds")
    chaos_exec.set_defaults(fn=_cmd_chaos_exec)

    serve = sub.add_parser(
        "serve",
        help="long-running HTTP job service: POST sweeps/grids/chaos/"
             "lifecycle runs, cached + crash-safe",
    )
    serve.add_argument("--state-dir", required=True, metavar="DIR",
                       help="service identity: journal, result cache, and "
                            "checkpoints live here across restarts")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 binds an ephemeral port, reported on stdout")
    serve.add_argument("--workers", type=int, default=2,
                       help="supervised worker threads (one child job each)")
    serve.add_argument("--queue-capacity", type=int, default=16,
                       help="bounded admission depth; beyond it submissions "
                            "are shed with 429 + Retry-After")
    serve.add_argument("--cache-budget", type=int, default=None,
                       metavar="BYTES",
                       help="result-cache byte budget (LRU eviction beyond "
                            "it; default: unbounded)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="execution attempts per job before it fails")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive same-kind failures that trip the "
                            "job-class circuit breaker")
    serve.add_argument("--chunk-size", type=int, default=4,
                       help="checkpoint chunk size passed to job children")
    serve.add_argument("--chunk-timeout", type=float, default=None,
                       help="per-chunk hang budget passed to job children")
    serve.add_argument("--job-timeout", type=float, default=900.0,
                       help="wall-clock ceiling per job child")
    serve.add_argument("--default-deadline", type=float, default=None,
                       help="deadline applied to jobs that do not set one")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       help="seconds running jobs get to finish on SIGTERM "
                            "before a checkpoint-flushing interrupt")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.set_defaults(fn=_cmd_serve)

    lifecycle = sub.add_parser(
        "lifecycle",
        help="self-healing sweep: fault processes x lifecycle policies",
    )
    lifecycle.add_argument("--processes", nargs="+", default=None,
                           choices=("transient", "intermittent", "permanent"),
                           help="temporal fault processes to sweep "
                                "(default: one of each class)")
    lifecycle.add_argument("--rate", type=float, default=0.0015,
                           help="per-cell per-cycle fault onset rate "
                                "(stuck-at uses rate/10)")
    lifecycle.add_argument("--burst-length", type=int, default=5,
                           help="cycles per intermittent burst")
    lifecycle.add_argument("--decay", type=float, default=0.1,
                           help="self-healing heartbeat score decay per cycle")
    lifecycle.add_argument("--jobs", type=int, default=6,
                           help="jobs run back-to-back per point")
    lifecycle.add_argument("--instructions", type=int, default=96,
                           help="instructions per job")
    lifecycle.add_argument("--rows", type=int, default=4)
    lifecycle.add_argument("--cols", type=int, default=4)
    lifecycle.add_argument("--seed", type=int, default=2004)
    _add_observability_args(lifecycle)
    _add_resilience_args(lifecycle)
    _add_backend_arg(lifecycle)
    lifecycle.set_defaults(fn=_cmd_lifecycle)

    bench = sub.add_parser(
        "bench", help="benchmark telemetry: run scripts, compare artifacts"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run",
        help="run benchmarks/bench_*.py and emit BENCH_<name>.json "
             "artifacts",
    )
    bench_run.add_argument("--smoke", action="store_true",
                           help="export REPRO_BENCH_SMOKE=1: shrunken "
                                "workloads, CI-fast")
    bench_run.add_argument("--filter", default=None, metavar="GLOB",
                           help="only scripts whose name matches "
                                "(e.g. 'perf_*', 'bench_fig7*')")
    bench_run.add_argument("--out", default=None, metavar="DIR",
                           help="artifact directory "
                                "(default: results/bench)")
    bench_run.add_argument("--seed", type=int, default=None,
                           help="harness-level seed recorded in provenance")
    bench_run.add_argument("--timeout", type=float, default=900.0,
                           help="per-script wall-clock ceiling in seconds")
    bench_run.set_defaults(fn=_cmd_bench_run)

    bench_compare = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json artifacts (or directories); exits "
             "non-zero on regression",
    )
    bench_compare.add_argument("baseline",
                               help="baseline artifact file or directory")
    bench_compare.add_argument("current",
                               help="current artifact file or directory")
    bench_compare.add_argument("--only", default=None, metavar="GLOB",
                               help="restrict to benchmarks matching GLOB")
    bench_compare.add_argument("--threshold", type=float, default=1.5,
                               help="default regression ratio "
                                    "(current/baseline mean)")
    bench_compare.add_argument("--threshold-for", action="append",
                               default=[], metavar="GLOB=RATIO",
                               help="per-metric threshold override "
                                    "(repeatable, first match wins)")
    bench_compare.add_argument("--min-time", type=float, default=1e-3,
                               help="ignore timers under this many "
                                    "seconds in both runs (noise floor)")
    bench_compare.add_argument("--speedup-floor", action="append",
                               default=[], metavar="GLOB=RATIO",
                               help="minimum value for derived speedups in "
                                    "the CURRENT artifact (repeatable); a "
                                    "matching speedup below RATIO fails the "
                                    "comparison")
    bench_compare.add_argument("--require-complete", action="store_true",
                               help="fail (exit non-zero) when the current "
                                    "run is missing artifacts the baseline "
                                    "has, instead of warning")
    bench_compare.set_defaults(fn=_cmd_bench_compare)

    replay = sub.add_parser(
        "replay",
        help="re-run a recorded manifest and assert byte-identical output",
    )
    replay.add_argument("manifest_path", metavar="MANIFEST",
                        help="manifest written by --manifest")
    replay.set_defaults(fn=_cmd_replay)

    report = sub.add_parser("report", help="full EXPERIMENTS report")
    report.add_argument("--quick", action="store_true")
    report.add_argument("--seed", type=int, default=2004)
    report.add_argument("--jobs", type=int, default=1,
                        help="campaign worker processes (1 = serial; "
                             "any value gives identical output)")
    report.add_argument("--out", default=None)
    _add_observability_args(report)
    report.set_defaults(fn=_cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    run_argv = list(argv) if argv is not None else list(sys.argv[1:])
    args = parser.parse_args(run_argv)
    args.run_argv = run_argv
    if hasattr(args, "obs_report"):
        return _run_with_observability(args)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    raise SystemExit(main())
