"""The compiled-kernel provider: the generated C kernel, or none.

A *provider* is the native side of the compiled tier: the plan
evaluator of the generated C kernel (:mod:`repro.kernels.cbuild`),
built and cached when a C compiler is on PATH, plus its optional mask
draw and tape scan.  With no compiler there is no provider, and callers
run plans on the NumPy executor instead (silently under ``auto``; with
a one-time stderr warning when ``compiled`` was requested explicitly).

Each entry is its own shared object.  Probing builds and self-tests
only ``eval``; the mask draw and the tape scan are built, loaded and
self-tested the first time a caller reads ``mask_fn`` or ``tape_fn``,
so a grid run never compiles either of them.

Every probe failure is captured, never raised: a missing toolchain can
only cost speed, not correctness.  Probing is cached per process; tests
monkeypatch :func:`_build_cc` and call :func:`reset_provider_cache` to
exercise each degradation path.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional

from repro.obs import get_observer


@dataclass(frozen=True)
class KernelProvider:
    """One live compiled-tier executor."""

    name: str  # "cc"
    eval_fn: Callable
    compile_seconds: float

    @cached_property
    def mask_fn(self) -> Optional[Callable]:
        """The native exact-fraction mask draw (see
        :func:`repro.kernels.cbuild.load_exact_fraction`), or ``None``;
        built on first access."""
        return _build_optional("mask")

    @cached_property
    def tape_fn(self) -> Optional[Callable]:
        """The native temporal fault-stream scan (see
        :func:`repro.kernels.cbuild.load_tape_scan`), or ``None``; built
        on first access."""
        return _build_optional("tape")


#: Sentinel distinguishing "not probed yet" from "probed, unavailable".
_UNPROBED = object()

_provider = _UNPROBED
_failures: List[str] = []
_warned = False
#: Serialises entry builds: two threads of one process would otherwise
#: share the builder's per-process temporary names.
_build_lock = threading.Lock()


def _build_entry(entry: str) -> Callable:
    """Build, load and self-test one kernel entry.

    Raises :class:`repro.kernels.cbuild.KernelBuildError` (or whatever
    the toolchain raises) when the entry is unusable.
    """
    from repro.kernels import cbuild
    from repro.kernels.csrc import c_source

    load, check = {
        "eval": (cbuild.load_eval, cbuild.self_test),
        "mask": (cbuild.load_exact_fraction, cbuild.mask_self_test),
        "tape": (cbuild.load_tape_scan, cbuild.tape_self_test),
    }[entry]
    with _build_lock:
        fn = load(cbuild.build_library(c_source(entry), entry))
    check(fn)
    return fn


def _build_optional(entry: str) -> Optional[Callable]:
    """An optional entry, or ``None`` with the reason in
    :func:`provider_failures`.  Its build time lands on the
    ``kernel.jit_compile`` timer, like the probe's."""
    try:
        with get_observer().metrics.time("kernel.jit_compile"):
            return _build_entry(entry)
    except Exception as exc:  # noqa: BLE001 - any failure means "none"
        _failures.append(f"cc.{entry}: {exc!r}")
        return None


def _build_cc() -> KernelProvider:
    """The generated-and-cached C plan evaluator via ctypes."""
    start = time.perf_counter()
    eval_fn = _build_entry("eval")
    return KernelProvider(
        name="cc",
        eval_fn=eval_fn,
        compile_seconds=time.perf_counter() - start,
    )


def get_provider() -> Optional[KernelProvider]:
    """The process's compiled-tier provider, or ``None`` if unavailable.

    The first call probes (and compiles ``eval``); the verdict is
    cached.  Compile time lands on the ``kernel.jit_compile``
    observability timer -- *outside* every campaign trial timer, so
    benchmark numbers never include first-call warmup.  The optional
    entries build on their first use, inside whatever is being timed
    then; a timed caller that uses them warms up first.
    """
    global _provider
    if _provider is _UNPROBED:
        _provider = _probe()
    return None if _provider is None else _provider


def _probe() -> Optional[KernelProvider]:
    obs = get_observer()
    try:
        with obs.metrics.time("kernel.jit_compile"):
            provider = _build_cc()
    except Exception as exc:  # noqa: BLE001 - any failure means "none"
        _failures.append(f"cc: {exc!r}")
        obs.metrics.counter("kernel.provider.none").inc()
        return None
    obs.metrics.counter(f"kernel.provider.{provider.name}").inc()
    return provider


def provider_failures() -> List[str]:
    """Why each probed provider was rejected (diagnostics/tests)."""
    return list(_failures)


def reset_provider_cache() -> None:
    """Forget the probe verdict and warning state (tests only)."""
    global _provider, _warned
    _provider = _UNPROBED
    _failures.clear()
    _warned = False


def warn_compiled_unavailable(reason: str = "") -> None:
    """One-time stderr notice that an explicit ``compiled`` request fell
    back to the NumPy executor.  ``auto`` selection never calls this."""
    global _warned
    if _warned:
        return
    _warned = True
    detail = f" ({reason})" if reason else ""
    print(
        "repro.kernels: compiled backend unavailable"
        f"{detail}; falling back to the batched NumPy executor. "
        "Results are bit-identical, only slower.",
        file=sys.stderr,
    )
