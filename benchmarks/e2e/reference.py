"""Host-speed correction: one CPU, and a thread that samples its speed.

The benchmark runs on a share of a shared host.  Each of its CPUs
shifts between speed states for anything from a second to minutes, and
the two CPUs shift independently (their per-half-second speeds
correlate at about 0.3).  In the slow state the same pass takes up to
twice as long, and its process CPU time grows exactly as its wall
time does: the CPU runs slower, the process does not wait longer.  So
neither a longer run nor a statistic over one run's passes removes it.

Instead ``run.py`` binds itself, and with it every process it starts,
to the CPU it is on (:func:`pin_to_current_cpu`).  While an interval is
timed, a :class:`SpeedGauge` thread on that same CPU runs a fixed
pure-Python sample every :data:`INTERVAL_S` and records the thread CPU
time it took.  Thread CPU time leaves out time spent waiting for the
CPU or the interpreter lock, so it tracks how fast the CPU executes,
not how busy it is.  :meth:`SpeedGauge.rescale` scales the interval's
wall time by the sample's mean time over that interval against
:data:`REFERENCE_S`.  The result is the interval's wall time at the
speed at which the sample takes :data:`REFERENCE_S`.

The slow state hurts some code more than other code, so what the
sample runs was chosen by measurement.  With the gauge sampling
alongside 20 to 40 passes of each workload, the slope of log pass
time against log sample time says how far rescaling over- or
under-corrects (1 is exact).  Against a tight integer loop the slopes
were 1.1 to 1.6, so rescaling by it under-corrects.  Against chasing
pointers through a few megabytes they were 2 to 3.  Against
allocating and converting short-lived numbers and strings they were
0.8 to 1.1.  The sample mixes object attribute updates, dict, sort
and string work and calls into many small functions (about a quarter
of its time) with that allocator churn (the rest), for slopes of 0.88
(``figures``) to 1.20 (``grid-image``).  A rescaled pass then varies
by 3 to 6% between passes, where its wall time varied by 19 to 34%.

This module imports only the standard library, so ``run.py`` can use
it without loading the library.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List

#: Thread CPU seconds one sample takes at the speed every timed interval
#: is rescaled to: about its time on a 2-core Intel Xeon container
#: (Python 3.11.7) in the host's fast state.
REFERENCE_S = 0.001

#: Seconds between samples.  Each sample costs 3 to 6% of this.
INTERVAL_S = 0.03


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: int) -> None:
        self.x = x
        self.y = x + 1
        self.z = x & 7

    def step(self, i: int) -> int:
        self.z = (self.x * self.y + self.z + i) & 0xFFFF
        return self.z


def _branchy_functions(count: int):
    """``count`` small functions, each its own code object."""
    source = "".join(
        f"def f{j}(x):\n"
        f"    y = x * {j + 3} + {j}\n"
        f"    if y & {1 << (j % 8)}:\n"
        f"        y ^= {j * 17}\n"
        f"    else:\n"
        f"        y += {j * 5}\n"
        f"    return y if y & 1 else y + {j}\n"
        for j in range(count)
    )
    namespace: dict = {}
    exec(source, namespace)
    return [namespace[f"f{j}"] for j in range(count)]


# Everything the sample touches exists before it runs: a sample that
# allocated containers would trigger garbage collections, and pay for
# the main thread's garbage at random.
_POINTS = [_Point(i) for i in range(600)]
_WORDS = [f"w{i}x{i * 7 % 13}" for i in range(200)]
_TABLE = dict.fromkeys(_WORDS, 0)
_RANKED = list(_WORDS)
_PARTS = [""] * 100
_FUNCTIONS = _branchy_functions(64)


def _rank(word: str) -> int:
    return _TABLE[word] ^ 37


def _sample_ns() -> int:
    """Thread CPU nanoseconds of one run of the fixed sample."""
    start = time.thread_time_ns()
    total = 0
    # Indexing over ranges: list iterators and enumerate objects are
    # containers too.
    for i in range(len(_POINTS)):
        total += _POINTS[i].step(i)
    for i in range(len(_WORDS)):
        _TABLE[_WORDS[i]] = (i * 31 + total) & 0xFF
    _RANKED.sort(key=_rank)
    for i in range(len(_PARTS)):
        _PARTS[i] = f"{_RANKED[i]}:{_TABLE[_RANKED[i]]};"
    text = "".join(_PARTS)
    total += len(text.replace("w", "").upper())
    x = total
    for _ in range(12):
        for j in range(len(_FUNCTIONS)):
            x = _FUNCTIONS[j](x) & 0xFFFFF
    # Short-lived numbers and strings: the allocator churn that, of all
    # the parts tried, slows most like the workloads do.
    for i in range(2400):
        x += len(str(i * 7919)) + int(i * 1.0001)
    return time.thread_time_ns() - start


def pin_to_current_cpu() -> None:
    """Bind this process, and the processes it starts later, to the CPU
    it is running on now.  Without procfs it stays unbound."""
    try:
        with open("/proc/self/stat") as f:
            # Field 39 is the CPU last run on; fields 3.. follow the ")".
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        return
    os.sched_setaffinity(0, {cpu})


class SpeedGauge:
    """Samples this CPU's speed from a background thread while open."""

    def __init__(self) -> None:
        self._samples: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="speed-gauge", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling; samples taken so far stay usable."""
        self._stop.set()
        self._thread.join()

    def __enter__(self) -> "SpeedGauge":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self._samples.append(_sample_ns())

    def mark(self) -> int:
        """A position to pass to :meth:`rescale` once the interval ends."""
        return len(self._samples)

    def rescale(self, wall: float, since: int) -> float:
        """``wall``, timed from mark ``since`` until now, at the
        reference speed.  An interval shorter than one sample uses the
        latest sample, or takes one."""
        samples = self._samples[since:] or self._samples[-1:] or [_sample_ns()]
        return wall * REFERENCE_S * 1e9 * len(samples) / sum(samples)
