"""The compiled-kernel provider: the generated C kernel, or none.

A *provider* is the native side of the compiled tier: the plan
evaluator of the generated C kernel (:mod:`repro.kernels.cbuild`),
built and cached when a C compiler is on PATH, plus its optional mask
draw and tape scan.  With no compiler there is no provider, and callers
run plans on the NumPy executor instead (silently under ``auto``; with
a one-time stderr warning when ``compiled`` was requested explicitly).

Every probe failure is captured, never raised: a missing toolchain can
only cost speed, not correctness.  Probing is cached per process; tests
monkeypatch :func:`_build_cc` and call :func:`reset_provider_cache` to
exercise each degradation path.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.obs import get_observer


@dataclass(frozen=True)
class KernelProvider:
    """One live compiled-tier executor."""

    name: str  # "cc"
    eval_fn: Callable
    compile_seconds: float
    #: The native exact-fraction mask draw (see
    #: :func:`repro.kernels.cbuild.load_exact_fraction`), or ``None``.
    mask_fn: Optional[Callable] = None
    #: The native temporal fault-stream scan (see
    #: :func:`repro.kernels.cbuild.load_tape_scan`), or ``None``.
    tape_fn: Optional[Callable] = None


#: Sentinel distinguishing "not probed yet" from "probed, unavailable".
_UNPROBED = object()

_provider = _UNPROBED
_failures: List[str] = []
_warned = False


def _build_cc() -> KernelProvider:
    """The generated-and-cached C extension via ctypes.

    The mask draw and the tape scan are optional: if one is missing or
    fails its self-test, the reason joins :func:`provider_failures` and
    the provider stays live with that entry ``None``.
    """
    from repro.kernels.cbuild import (
        KernelBuildError,
        build_library,
        load_eval,
        load_exact_fraction,
        load_tape_scan,
        mask_self_test,
        self_test,
        tape_self_test,
    )
    from repro.kernels.csrc import c_source

    start = time.perf_counter()
    lib_path = build_library(c_source())
    eval_fn = load_eval(lib_path)
    self_test(eval_fn)
    try:
        mask_fn = load_exact_fraction(lib_path)
        mask_self_test(mask_fn)
    except KernelBuildError as exc:
        _failures.append(f"cc.mask: {exc!r}")
        mask_fn = None
    try:
        tape_fn = load_tape_scan(lib_path)
        tape_self_test(tape_fn)
    except KernelBuildError as exc:
        _failures.append(f"cc.tape: {exc!r}")
        tape_fn = None
    return KernelProvider(
        name="cc",
        eval_fn=eval_fn,
        compile_seconds=time.perf_counter() - start,
        mask_fn=mask_fn,
        tape_fn=tape_fn,
    )


def get_provider() -> Optional[KernelProvider]:
    """The process's compiled-tier provider, or ``None`` if unavailable.

    The first call probes (and compiles); the verdict is cached.
    Compile time lands on the ``kernel.jit_compile`` observability timer
    -- *outside* every campaign trial timer, so benchmark numbers never
    include first-call warmup.
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
