"""repro.obs: structured metrics, event tracing, and durable telemetry.

The observability layer underneath the campaign, executor, grid, and
lifecycle instrumentation:

* :class:`MetricsRegistry` -- named counters, gauges, and histogram
  timers (injected monotonic clock; mergeable across worker processes);
* :class:`TraceLog` -- a typed event bus with ring-buffer retention,
  JSONL export, and :meth:`~TraceLog.to_chrome_trace` Perfetto export;
* :class:`Observer` / :func:`observing` / :func:`get_observer` -- the
  per-run handle instrumented code reads (a shared no-op by default);
* :func:`report_metrics` -- the ASCII summary behind the CLI's
  ``--obs-report``;
* :mod:`repro.obs.provenance` / :mod:`repro.obs.manifest` -- run
  provenance blocks and exact-replay manifests
  (``--manifest`` / ``nanobox-repro replay``).

The layer's contract is *never perturb*: an instrumented run is
bit-identical to a bare run (no RNG draws, no state mutation), with
under 5% throughput overhead on the campaign hot path
(``benchmarks/bench_obs_overhead.py`` asserts both).
"""

from repro.obs.chrome import to_chrome_trace, write_chrome_trace
from repro.obs.context import NULL_OBSERVER, Observer, get_observer, observing
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.provenance import collect_provenance
from repro.obs.report import lifecycle_timeline, report_metrics
from repro.obs.trace import NullTraceLog, TraceEvent, TraceLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTraceLog",
    "NULL_OBSERVER",
    "Observer",
    "TraceEvent",
    "TraceLog",
    "collect_provenance",
    "get_observer",
    "lifecycle_timeline",
    "observing",
    "report_metrics",
    "to_chrome_trace",
    "write_chrome_trace",
]
