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

Every subcommand, ``serve`` and the ``bench`` pair included, is declared
once in :data:`COMMANDS`: each argument's flag, domain type, default and
help.  ``build_parser`` builds the parser from that table alone, so an
out-of-domain value is a usage error (exit 2) on every command; the
campaign service validates job requests and takes its ``ServiceConfig``
defaults from the same entries.

Also available as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


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
#: (in Table 2 order), ``repro.kernels.BACKENDS`` and the LUT coding
#: schemes ``repro.lut.coded`` can build.
VARIANT_CHOICES = (
    "aluncmos", "alunh", "alunn", "aluns",
    "aluscmos", "alush", "alusn", "aluss",
    "alutcmos", "aluth", "alutn", "aluts",
)
BACKEND_CHOICES = ("scalar", "batched", "compiled", "auto")
SCHEME_CHOICES = (
    "none", "hamming", "hamming-sec", "hamming-fp", "hsiao", "parity",
    "tmr", "tmr-interleaved", "5mr", "7mr",
)
#: Mirrors ``repro.perf.chaos_exec.CHAOS_MODES``, so that the parser
#: builds without importing the harness.
CHAOS_MODE_CHOICES = (
    "kill", "hang", "corrupt", "disk-full", "deadline",
    "overload", "dup-storm", "sigterm", "kill9", "tamper",
)


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


def _in_range(
    parse: Callable[[str], Any],
    low: float,
    high: Optional[float] = None,
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> Callable[[str], Any]:
    """argparse type: one ``parse``-d value inside an interval.

    ``low``/``high`` are inclusive unless ``low_open``/``high_open``;
    without ``high`` there is no upper bound.  An out-of-range value is
    an ``ArgumentTypeError``, so argparse reports a usage error.
    """
    noun = "an integer" if parse is int else "a number"
    if high is not None:
        domain = (
            f"within {'(' if low_open else '['}{low}, "
            f"{high}{')' if high_open else ']'}"
        )
    elif low_open:
        domain = f"greater than {low}"
    else:
        domain = f"at least {low}"

    def convert(text: str) -> Any:
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        inside = (low < value if low_open else low <= value) and (
            high is None or (value < high if high_open else value <= high)
        )
        if not inside:
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text}")
        return value

    return convert


_positive_int = _in_range(int, 1)
_seed = _in_range(int, 0)
_probability = _in_range(float, 0, 1)
_rate = _in_range(float, 0, 1, high_open=True)
_percent = _in_range(float, 0, 100)
_non_negative = _in_range(float, 0)
_seconds = _in_range(float, 0, low_open=True)
_ratio = _in_range(float, 0, low_open=True)


def _glob_ratio(spec: str) -> Tuple[str, float]:
    """Parse ``GLOB=RATIO`` into ``(glob, ratio)``, the ratio above 0."""
    pattern, equals, ratio = spec.partition("=")
    if not equals:
        raise argparse.ArgumentTypeError(f"expected GLOB=RATIO, got {spec!r}")
    return pattern, _ratio(ratio)


def _parse_kill(spec: str) -> Tuple[int, Tuple[int, int]]:
    """Parse ``row,col@cycle`` into ``(cycle, (row, col))``."""
    match = re.fullmatch(r"([0-9]+),([0-9]+)@([0-9]+)", spec)
    if match is None:
        raise argparse.ArgumentTypeError(
            f"bad --kill spec {spec!r}; expected row,col@cycle"
        )
    row, col, cycle = (int(group) for group in match.groups())
    return cycle, (row, col)


class Param(NamedTuple):
    """One argument of a command: a ``--flag``, or a positional when
    ``flag`` has no leading dashes.

    ``type`` parses one value and enforces its domain, so an
    out-of-range value is a usage error on the command line and a
    validation error in the campaign service, which reads the same
    entry.  A flag that ``requires`` another (named by its dest) parses
    to None when absent, so that its presence shows, and gets its
    default once :func:`unmet_requirement` has passed.
    """

    flag: str
    type: Optional[Callable[[str], Any]] = None
    default: Any = None
    help: Optional[str] = None
    choices: Optional[Tuple[Any, ...]] = None
    nargs: Optional[str] = None
    action: Optional[str] = None
    metavar: Optional[str] = None
    required: Optional[bool] = None
    requires: Optional[str] = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def add_to(self, parser) -> None:
        options = {
            name: value for name, value in zip(self._fields, self)
            if value is not None and name not in ("flag", "requires")
        }
        if self.requires:
            options["default"] = None
        parser.add_argument(self.flag, **options)


#: Flag families, attached to commands by name: ``name -> (argument
#: group title, or None for the command's own options; flags)``.
FAMILIES: Dict[str, Tuple[Optional[str], Tuple[Param, ...]]] = {
    "observability": ("observability", (
        Param("--metrics", metavar="PATH",
              help="write the run's metrics registry as JSON"),
        Param("--trace", metavar="PATH",
              help="write the run's trace events as JSON Lines"),
        Param("--chrome-trace", metavar="PATH",
              help="write the run's trace as a Chrome trace event file "
                   "(open in ui.perfetto.dev)"),
        Param("--obs-report", action="store_true",
              help="print the ASCII observability summary (top timers, "
                   "counters, lifecycle timeline)"),
        Param("--manifest", metavar="PATH",
              help="record an exact-replay manifest (re-run and verify "
                   "with: nanobox-repro replay PATH)"),
    )),
    "resilience": ("resilience", (
        Param("--checkpoint-dir", metavar="DIR",
              help="durably checkpoint completed work chunks under DIR "
                   "(content-addressed by the run configuration)"),
        Param("--resume", action="store_true", default=False,
              requires="checkpoint_dir",
              help="reuse valid checkpoints from --checkpoint-dir; the "
                   "resumed output is byte-identical to an uninterrupted "
                   "run"),
        Param("--deadline", type=_seconds, metavar="SECS",
              help="wall-clock budget; on expiry the run stops scheduling "
                   "work and reports an explicit partial result "
                   f"(exit {EXIT_INCOMPLETE})"),
        Param("--checkpoint-chunk-size", type=_positive_int, default=4,
              metavar="N", help="tasks per checkpointed chunk"),
        Param("--chunk-timeout", type=_seconds, metavar="SECS",
              help="per-chunk hung-worker timeout (parallel runs only): a "
                   "wedged worker is killed and its chunk re-run in a "
                   "fresh pool"),
    )),
    # The default is "auto" unless $REPRO_BACKEND (validated by
    # build_parser) names a tier; an explicit flag wins.  Every tier is
    # bit-identical -- the choice only affects speed.
    "backend": (None, (
        Param("--backend", choices=BACKEND_CHOICES, default="auto",
              help="evaluation tier: scalar, batched (NumPy), compiled "
                   "(native kernel; falls back with a warning if "
                   "unavailable), or auto (fastest available); default "
                   "honours $REPRO_BACKEND, else auto"),
    )),
}

_JOBS_HELP = (
    "campaign worker processes (1 = serial; any value gives identical output)"
)

#: Every subcommand, declared once: ``name -> (help, own arguments in
#: --help order, flag families)``.  ``build_parser`` builds one
#: subparser per entry, in this order; a name with a space (``bench
#: run``) is a subcommand of the entry it extends, and a leaf command
#: runs ``_cmd_<name>`` (spaces and hyphens read as underscores).  The
#: campaign service validates job requests and lowers them to argv with
#: the same entries, and ``ServiceConfig`` takes its defaults from
#: ``serve``'s.
COMMANDS: Dict[str, Tuple[str, Tuple[Param, ...], Tuple[str, ...]]] = {
    "table1": ("print the ISA table", (), ()),
    "table2": ("print variants and fault-site counts", (), ()),
    "area": ("print the area-overhead table", (), ()),
    "fit": ("percent -> FIT translation", (
        Param("--variant", choices=VARIANT_CHOICES, default="aluss",
              metavar="VARIANT"),
    ), ()),
    "describe": ("show a variant's hierarchy", (
        Param("variant", choices=VARIANT_CHOICES, metavar="VARIANT"),
    ), ()),
    "sweep": ("regenerate Figure 7, 8, or 9", (
        Param("--figure", type=int, choices=(7, 8, 9), default=7),
        Param("--trials", type=_positive_int, default=5,
              help="trials per workload (paper: 5)"),
        Param("--quick", action="store_true"),
        Param("--chart", action="store_true",
              help="render as an ASCII chart instead of a table"),
        Param("--json", help="also write a JSON export to this path"),
        Param("--seed", type=_seed, default=2004),
        Param("--jobs", type=_positive_int, default=1, help=_JOBS_HELP),
    ), ("observability", "resilience", "backend")),
    "grid": ("run a full-system image job", (
        Param("--rows", type=_positive_int, default=4),
        Param("--cols", type=_positive_int, default=4),
        Param("--scheme", choices=SCHEME_CHOICES, default="tmr",
              metavar="SCHEME", help="cell ALU LUT coding scheme"),
        Param("--workload", default="reverse_video",
              choices=("reverse_video", "hue_shift", "brightness_boost",
                       "threshold_mask")),
        Param("--image-size", type=_positive_int, default=8),
        Param("--fault-percent", type=_percent, default=0.0),
        Param("--kill", type=_parse_kill, action="append",
              metavar="ROW,COL@CYCLE"),
        Param("--adaptive", action="store_true",
              help="route around dead cells"),
        Param("--rounds", type=_positive_int, default=3),
        Param("--seed", type=_seed, default=0),
        Param("--show-grid", action="store_true",
              help="render the final fabric state"),
    ), ("observability", "resilience", "backend")),
    "yield": ("manufacturing-yield table", (
        Param("--variants", nargs="+", choices=VARIANT_CHOICES,
              default=("alunn", "aluns"), metavar="VARIANT"),
        Param("--density", type=_probability, nargs="+", default=(1e-3,)),
        Param("--parts", type=_positive_int, default=10),
        Param("--seed", type=_seed, default=0),
    ), ()),
    "analyze": ("closed-form budgets and horizons", (
        Param("--target", type=_in_range(float, 0, 100, low_open=True),
              default=98.0, help="target percent-correct"),
        Param("--fault-percent", type=_percent, default=1.0,
              help="operating injected-fault percentage"),
        Param("--threshold", type=_in_range(int, 0), default=8,
              help="watchdog error threshold"),
    ), ()),
    "chaos": ("link-fault chaos sweep of the transport fabric", (
        Param("--rates", type=_probability, nargs="+",
              default=(0.0, 0.001, 0.003, 0.01),
              help="link bit-flip rates to sweep"),
        Param("--rounds", type=_positive_int, nargs="+", default=(1, 3),
              help="retransmit budgets (submission rounds) to sweep"),
        Param("--drop-rate", type=_probability, default=0.0,
              help="whole-packet drop probability per link"),
        Param("--stall-rate", type=_rate, default=0.0,
              help="per-cycle link stall probability"),
        Param("--rows", type=_positive_int, default=3),
        Param("--cols", type=_positive_int, default=3),
        Param("--instructions", type=_positive_int, default=48),
        Param("--seed", type=_seed, default=2004),
    ), ("observability", "resilience", "backend")),
    "chaos-exec": (
        "process-level chaos harness: inject crashes, hangs, corruption, "
        "overload and restarts into real child runs and a real server; "
        "assert the recovery invariants", (
            Param("--modes", nargs="+", choices=CHAOS_MODE_CHOICES,
                  default=CHAOS_MODE_CHOICES,
                  help="fault modes to inject (default: all)"),
            Param("--workdir", metavar="DIR",
                  help="working directory for child runs and server state "
                       "(default: a fresh temp directory)"),
            Param("--seed", type=_seed, default=2004,
                  help="seed for the target sweep and jobs"),
            Param("--timeout", type=_seconds, default=300.0,
                  help="per-child wall-clock ceiling in seconds"),
        ), ()),
    # These defaults are ServiceConfig's.  --chunk-size and
    # --chunk-timeout take the domains of the child flags they feed.
    "serve": (
        "long-running HTTP job service: POST sweeps/grids/chaos/lifecycle "
        "runs, cached + crash-safe", (
            Param("--state-dir", required=True, metavar="DIR",
                  help="service identity: journal, result cache, and "
                       "checkpoints live here across restarts"),
            Param("--host", default="127.0.0.1"),
            Param("--port", type=_in_range(int, 0, 65535), default=0,
                  help="0 binds an ephemeral port, reported on stdout"),
            Param("--workers", type=_positive_int, default=2,
                  help="supervised worker threads (one child job each)"),
            Param("--queue-capacity", type=_positive_int, default=16,
                  help="bounded admission depth; beyond it submissions are "
                       "shed with 429 + Retry-After"),
            Param("--cache-budget", type=_in_range(int, 0), metavar="BYTES",
                  help="result-cache byte budget (LRU eviction beyond it; "
                       "default: unbounded)"),
            Param("--max-attempts", type=_positive_int, default=3,
                  help="execution attempts per job before it fails"),
            Param("--breaker-threshold", type=_positive_int, default=3,
                  help="consecutive same-kind failures that trip the "
                       "job-class circuit breaker"),
            Param("--chunk-size", type=_positive_int, default=4,
                  help="checkpoint chunk size passed to job children"),
            Param("--chunk-timeout", type=_seconds,
                  help="per-chunk hang budget passed to job children"),
            Param("--job-timeout", type=_seconds, default=900.0,
                  help="wall-clock ceiling per job child"),
            Param("--default-deadline", type=_seconds,
                  help="deadline applied to jobs that do not set one"),
            Param("--drain-grace", type=_non_negative, default=30.0,
                  help="seconds running jobs get to finish on SIGTERM "
                       "before a checkpoint-flushing interrupt"),
            Param("--verbose", action="store_true", default=False,
                  help="log each HTTP request to stderr"),
        ), ()),
    "lifecycle": ("self-healing sweep: fault processes x lifecycle policies", (
        Param("--processes", nargs="+",
              choices=("transient", "intermittent", "permanent"),
              help="temporal fault processes to sweep (default: one of "
                   "each class)"),
        Param("--rate", type=_rate, default=0.0015, requires="processes",
              help="per-cell per-cycle fault onset rate (stuck-at uses "
                   "rate/10)"),
        Param("--burst-length", type=_positive_int, default=5,
              requires="processes", help="cycles per intermittent burst"),
        Param("--decay", type=_non_negative, default=0.1,
              help="self-healing heartbeat score decay per cycle"),
        Param("--jobs", type=_positive_int, default=6,
              help="jobs run back-to-back per point"),
        Param("--instructions", type=_positive_int, default=96,
              help="instructions per job"),
        Param("--rows", type=_positive_int, default=4),
        Param("--cols", type=_positive_int, default=4),
        Param("--seed", type=_seed, default=2004),
    ), ("observability", "resilience", "backend")),
    "bench": ("benchmark telemetry: run scripts, compare artifacts", (), ()),
    "bench run": (
        "run benchmarks/bench_*.py and emit BENCH_<name>.json artifacts", (
            Param("--smoke", action="store_true",
                  help="export REPRO_BENCH_SMOKE=1: shrunken workloads, "
                       "CI-fast"),
            Param("--filter", metavar="GLOB",
                  help="only scripts whose name matches (e.g. 'perf_*', "
                       "'bench_fig7*')"),
            Param("--out", metavar="DIR",
                  help="artifact directory (default: results/bench)"),
            Param("--seed", type=_seed,
                  help="harness-level seed recorded in provenance"),
            Param("--timeout", type=_seconds, default=900.0,
                  help="per-script wall-clock ceiling in seconds"),
        ), ()),
    "bench compare": (
        "diff two BENCH_*.json artifacts (or directories); exits non-zero "
        "on regression", (
            Param("baseline", help="baseline artifact file or directory"),
            Param("current", help="current artifact file or directory"),
            Param("--only", metavar="GLOB",
                  help="restrict to benchmarks matching GLOB"),
            Param("--threshold", type=_ratio, default=1.5,
                  help="default regression ratio (current/baseline mean)"),
            Param("--threshold-for", type=_glob_ratio, action="append",
                  default=[], metavar="GLOB=RATIO",
                  help="per-metric threshold override (repeatable, first "
                       "match wins)"),
            Param("--min-time", type=_non_negative, default=1e-3,
                  help="ignore timers under this many seconds in both runs "
                       "(noise floor)"),
            Param("--speedup-floor", type=_glob_ratio, action="append",
                  default=[], metavar="GLOB=RATIO",
                  help="minimum value for derived speedups in the CURRENT "
                       "artifact (repeatable); a matching speedup below "
                       "RATIO fails the comparison"),
            Param("--require-complete", action="store_true",
                  help="fail (exit non-zero) when the current run is missing "
                       "artifacts the baseline has, instead of warning"),
        ), ()),
    "replay": (
        "re-run a recorded manifest and assert byte-identical output", (
            Param("manifest_path", metavar="MANIFEST",
                  help="manifest written by --manifest"),
        ), ()),
    "report": ("full EXPERIMENTS report", (
        Param("--quick", action="store_true"),
        Param("--seed", type=_seed, default=2004),
        Param("--jobs", type=_positive_int, default=1, help=_JOBS_HELP),
        Param("--out"),
    ), ("observability",)),
}


def command_params(command: str) -> Dict[str, Param]:
    """A table-built command's flags by dest: its own, then its families'."""
    _, own, families = COMMANDS[command]
    params = list(own)
    for family in families:
        params.extend(FAMILIES[family][1])
    return {param.dest: param for param in params}


def unmet_requirement(command: str, given: Iterable[str]) -> Optional[str]:
    """The error for a flag given (by dest) without the flag it needs."""
    params = command_params(command)
    present = set(given)
    for param in params.values():
        if param.dest in present and param.requires not in (None, *present):
            return f"{param.flag} requires {params[param.requires].flag}"
    return None


def _runtime_from_args(args: argparse.Namespace):
    """The ResilientRuntime the flags ask for, or None: without
    resilience flags the task list runs once, inline."""
    wanted = (
        args.checkpoint_dir is not None
        or args.resume
        or args.deadline is not None
        or args.chunk_timeout is not None
    )
    if not wanted:
        return None
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


def _finish(outcome, body: Optional[str] = None) -> int:
    """Print a run's report ``body``; exit status 0, or 3 after the
    explicit partial-result banner when tasks are missing.

    A checkpointed run's recovery accounting goes to stderr, so stdout
    stays byte-identical to a run without resilience flags.
    """
    if outcome.run_key is not None:
        from repro.perf import resilience_note

        print(resilience_note(outcome), file=sys.stderr)
    if body is not None:
        print(body)
    if outcome.complete:
        return 0
    if body is not None:
        print()
    print(_incomplete_banner(outcome))
    return EXIT_INCOMPLETE


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


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.figures import (
        PAPER_FAULT_PERCENTAGES,
        partial_figure_text,
        run_figure_resilient,
    )

    percents: Sequence[float]
    if args.quick:
        percents = (0, 0.5, 1, 3, 9, 30, 75)
        trials = 2
    else:
        percents = PAPER_FAULT_PERCENTAGES
        trials = args.trials
    run = run_figure_resilient(
        f"figure{args.figure}",
        _runtime_from_args(args),
        fault_percents=percents,
        trials_per_workload=trials,
        seed=args.seed,
        jobs=args.jobs,
        backend=args.backend,
    )
    result = run.figure
    if result is None:
        return _finish(run.outcome, partial_figure_text(run))
    _finish(run.outcome)
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


def _cmd_grid(args: argparse.Namespace) -> int:
    from contextlib import redirect_stdout

    from repro.perf.resilient import TaskPlan

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

    plan = TaskPlan([0], run_chunk, config, kind="grid-stdout", chunk_size=1)
    outcome = plan.run(_runtime_from_args(args))
    status = _finish(outcome)
    if status:
        return status
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
    from repro.experiments.chaos_fabric import (
        chaos_sweep_plan,
        chaos_table_text,
    )

    outcome = chaos_sweep_plan(
        link_rates=tuple(args.rates),
        retry_budgets=tuple(args.rounds),
        drop_rate=args.drop_rate,
        stall_rate=args.stall_rate,
        rows=args.rows,
        cols=args.cols,
        n_instructions=args.instructions,
        seed=args.seed,
        backend=args.backend,
    ).run(_runtime_from_args(args))
    points = [point for point in outcome.results if point is not None]
    return _finish(outcome, (
        f"Link-fault chaos sweep ({args.rows}x{args.cols} grid, "
        f"{args.instructions} instructions, drop {args.drop_rate:g}, "
        f"stall {args.stall_rate:g})\n{chaos_table_text(points)}"
    ))


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    from repro.experiments.lifecycle import (
        default_processes,
        lifecycle_sweep_plan,
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
    outcome = lifecycle_sweep_plan(
        processes,
        policies,
        jobs=args.jobs,
        n_instructions=args.instructions,
        rows=args.rows,
        cols=args.cols,
        seed=args.seed,
        backend=args.backend,
    ).run(_runtime_from_args(args))
    points = [point for point in outcome.results if point is not None]
    return _finish(outcome, (
        f"Cell health lifecycle sweep ({args.rows}x{args.cols} grid, "
        f"{args.jobs} jobs x {args.instructions} instructions, "
        f"seed {args.seed})\n{lifecycle_table_text(points)}"
    ))


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
        **{dest: getattr(args, dest) for dest in command_params("serve")}
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

    comparisons, warnings, errors = compare_paths(
        Path(args.baseline),
        Path(args.current),
        only=args.only,
        threshold=args.threshold,
        thresholds=dict(args.threshold_for) or None,
        min_time=args.min_time,
        speedup_floors=dict(args.speedup_floor) or None,
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


def _add_command(subparsers: Dict[str, Any], name: str) -> None:
    """Build one :data:`COMMANDS` entry under its parent's subparsers
    (keyed by command name, ``""`` for the top level); a command that
    others extend gets subparsers of its own instead of a handler."""
    help_text, own, families = COMMANDS[name]
    parent, _, leaf = name.rpartition(" ")
    parser = subparsers[parent].add_parser(leaf, help=help_text)
    for param in own:
        param.add_to(parser)
    for family in families:
        title, params = FAMILIES[family]
        group = parser if title is None else parser.add_argument_group(title)
        for param in params:
            param.add_to(group)
    if "backend" in families:
        parser.set_defaults(backend=_backend_from_env("auto"))
    if any(other.startswith(name + " ") for other in COMMANDS):
        subparsers[name] = parser.add_subparsers(
            dest=f"{leaf}_command", required=True
        )
    else:
        parser.set_defaults(fn=globals()["_cmd_" + re.sub("[ -]", "_", name)])


def _apply_requirements(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Reject a table flag given without the flag it needs (exit 2),
    then fill in the defaults of the dependent flags left out."""
    error = unmet_requirement(args.command, (
        dest for dest, value in vars(args).items()
        if value is not None and value is not False
    ))
    if error:
        parser.error(error)
    for param in command_params(args.command).values():
        if param.requires and getattr(args, param.dest) is None:
            setattr(args, param.dest, param.default)


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser, one subparser per :data:`COMMANDS`
    entry.

    A table flag that ``requires`` another (``lifecycle --rate``,
    ``--resume``, ...) parses to None when absent; :func:`main` rejects
    it without the flag it needs and only then fills in its default.
    """
    parser = argparse.ArgumentParser(
        prog="nanobox-repro",
        description="Recursive NanoBox Processor Grid reproduction toolkit",
    )
    try:
        _backend_from_env()
    except ValueError as exc:
        parser.error(str(exc))  # a usage error (exit 2), not a traceback
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for name in COMMANDS:
        _add_command(subparsers, name)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    run_argv = list(argv) if argv is not None else list(sys.argv[1:])
    args = parser.parse_args(run_argv)
    args.run_argv = run_argv
    _apply_requirements(parser, args)
    if hasattr(args, "obs_report"):
        return _run_with_observability(args)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    raise SystemExit(main())
