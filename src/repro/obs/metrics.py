"""Structured metrics: counters, gauges, and histogram timers.

The paper's whole evaluation is counting -- injected faults vs. observed
errors per variant (Table 2, Figs. 7-9) -- and every layer of this
reproduction grew its own ad-hoc tally dataclass (``TrialResult``,
``DeliveryStats``, ``ExecutorStats``, ``ProbeReport``).
:class:`MetricsRegistry` is the common substrate underneath them: named
counters, gauges, and histograms that any layer can increment, that merge
across process-pool workers, and that export to one JSON document per run.

Two properties matter more than features:

* **Determinism.**  Metrics only ever *read* state (counts, an injected
  monotonic clock); they never draw from any RNG, so instrumented runs are
  bit-identical to bare runs.  Tests inject a fake clock to make timer
  output deterministic too.
* **Hot-path cost.**  A counter increment is one dict hit and an integer
  add; the disabled form (:class:`NullMetricsRegistry`) returns shared
  singleton no-op instruments and never calls the clock, so
  instrumentation can stay in hot paths unconditionally.

Merge semantics (used to fold worker-process registries into the
parent's): counters add, histograms concatenate sample streams, gauges
last-write-wins.  Counter merge is associative and commutative;
histogram merge is associative (concatenation), which is what the
executor's ordered chunk fold relies on.
"""

from __future__ import annotations

import json
import time
from bisect import insort
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
]


class Counter:
    """A monotonically increasing named tally."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self._value = value

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative: counters never go down)."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self._value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A named point-in-time value (last write wins)."""

    __slots__ = ("name", "_value", "_set")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self._value = value
        self._set = False

    @property
    def value(self) -> float:
        return self._value

    @property
    def assigned(self) -> bool:
        """True once :meth:`set` has been called (merge uses this)."""
        return self._set

    def set(self, value: float) -> None:
        self._value = value
        self._set = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, value={self._value})"


class Histogram:
    """A named sample distribution (the timer backbone).

    Samples are kept sorted (insertion-sorted on observe) so quantiles
    are O(1) reads; ``max_samples`` bounds memory by uniformly thinning
    once the cap is hit -- count/total/min/max stay exact, quantiles
    become approximate.  Campaign-scale runs record thousands of timer
    samples, well under the default cap.
    """

    __slots__ = ("name", "_sorted", "_count", "_total", "_min", "_max",
                 "_max_samples")

    DEFAULT_MAX_SAMPLES = 100_000

    def __init__(
        self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES
    ) -> None:
        if max_samples < 2:
            raise ValueError(
                f"max_samples must be >= 2, got {max_samples}"
            )
        self.name = name
        self._sorted: List[float] = []
        self._count = 0
        self._total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._max_samples = max_samples

    @property
    def count(self) -> int:
        """Samples observed (exact, even after thinning)."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observed samples (exact, even after thinning)."""
        return self._total

    @property
    def min(self) -> Optional[float]:
        return self._min

    @property
    def max(self) -> Optional[float]:
        return self._max

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def samples(self) -> Tuple[float, ...]:
        """Retained samples, ascending."""
        return tuple(self._sorted)

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self._count += 1
        self._total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        insort(self._sorted, value)
        if len(self._sorted) > self._max_samples:
            # Uniform decimation: drop every other retained sample.  The
            # survivors still span [min, max] because endpoints are kept.
            self._sorted = self._sorted[::2]

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of retained samples (nearest-rank).

        Invariants (property-tested): ``quantile(0) == min``,
        ``quantile(1) == max``, and ``quantile`` is monotone
        non-decreasing in ``q``.

        Raises:
            ValueError: for an empty histogram or ``q`` outside [0, 1].
        """
        if not self._sorted:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        index = min(int(q * len(self._sorted)), len(self._sorted) - 1)
        return self._sorted[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name!r}, count={self._count}, "
            f"total={self._total:g})"
        )


class _TimerContext:
    """Reusable ``with registry.time(name):`` context manager."""

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram: Histogram, clock: Callable[[], float]) -> None:
        self._histogram = histogram
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(self._clock() - self._start)


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms for one run.

    Args:
        clock: monotonic time source for :meth:`time` timers.  Injected
            so tests are deterministic; defaults to
            :func:`time.perf_counter`.  Never consulted except inside an
            active timer context.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    # ------------------------------------------------------------ instruments

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def time(self, name: str) -> _TimerContext:
        """Context manager recording its duration into histogram ``name``."""
        return _TimerContext(self.histogram(name), self._clock)

    # -------------------------------------------------------------- iteration

    def counters(self) -> Iterator[Counter]:
        """All counters, sorted by name."""
        return iter(sorted(self._counters.values(), key=lambda c: c.name))

    def gauges(self) -> Iterator[Gauge]:
        """All gauges, sorted by name."""
        return iter(sorted(self._gauges.values(), key=lambda g: g.name))

    def histograms(self) -> Iterator[Histogram]:
        """All histograms, sorted by name."""
        return iter(sorted(self._histograms.values(), key=lambda h: h.name))

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    # ------------------------------------------------------------- merge / IO

    def snapshot(self) -> Dict[str, object]:
        """A JSON-safe dict of everything recorded so far."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value
                for name, g in sorted(self._gauges.items())
                if g.assigned
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "samples": list(h.samples),
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """The snapshot, serialized."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; gauges take the incoming value (last write wins);
        histograms replay the incoming retained samples, then restore
        the exact count/total/min/max accounting.  Counter merge is
        associative and commutative (integer addition), so folding
        worker snapshots in any grouping yields the same totals --
        property-tested.
        """
        for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
            self.gauge(name).set(float(value))
        for name, data in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
            histogram = self.histogram(name)
            for sample in data["samples"]:
                insort(histogram._sorted, float(sample))
            if len(histogram._sorted) > histogram._max_samples:
                histogram._sorted = histogram._sorted[::2]
            histogram._count += int(data["count"])
            histogram._total += float(data["total"])
            for bound in ("min", "max"):
                incoming = data[bound]
                if incoming is None:
                    continue
                current = getattr(histogram, f"_{bound}")
                if current is None:
                    setattr(histogram, f"_{bound}", float(incoming))
                elif bound == "min":
                    histogram._min = min(current, float(incoming))
                else:
                    histogram._max = max(current, float(incoming))

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (see :meth:`merge_snapshot`)."""
        self.merge_snapshot(other.snapshot())


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by the null registry."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        return None


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


class _NullTimerContext:
    """Reusable no-op timer: never reads the clock, never allocates."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimerContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")
_NULL_TIMER = _NullTimerContext()


def _never_called_clock() -> float:  # pragma: no cover - by construction
    raise AssertionError("NullMetricsRegistry must never read the clock")


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op.

    Guarantees zero observable side effects: nothing is recorded, the
    clock is *never* called (it raises if it somehow is), and no
    per-call allocation happens -- every accessor returns a module-level
    singleton.  This is what :data:`repro.obs.NULL_OBSERVER` carries, so
    uninstrumented hot paths pay one attribute lookup and one method
    call per metric touch.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=_never_called_clock)

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def time(self, name: str) -> _NullTimerContext:  # type: ignore[override]
        return _NULL_TIMER
