"""Lowered kernel plans and the executors that run them.

Three evaluation tiers share one contract -- bit- and stream-identical
``TrialResult``s for the same ``(seed, workload, trial)``:

* **scalar** -- the reference object graph, one instruction at a time;
* **batched** -- the unit's lowered plan (:mod:`repro.kernels.plan`) on
  the NumPy executor (:class:`repro.alu.batched.BatchedEngine`);
* **compiled** -- the same plan on the generated C kernel, built and
  cached when a C compiler is on PATH (:mod:`repro.kernels.cbuild`).

``auto`` -- the default of every campaign driver (figures, ablations,
the yield sweep, the executor's work items) -- resolves per unit to the
fastest tier available at runtime: compiled when the unit lowers and the
C kernel is live, batched otherwise, silently.  Explicit ``compiled``
requests degrade to ``batched`` with a one-time stderr warning when no
C kernel is live.  Selection is surfaced as ``--backend`` on the
sweep/grid/chaos/lifecycle CLIs and the ``REPRO_BACKEND`` environment
variable.
"""

from __future__ import annotations

from repro.kernels.engine import (
    AcceleratedUnit,
    CompiledEngine,
    PlanEngine,
    accelerate_unit,
    build_engine,
)
from repro.kernels.plan import KernelPlan, build_plan
from repro.kernels.providers import (
    KernelProvider,
    get_provider,
    provider_failures,
    reset_provider_cache,
    warn_compiled_unavailable,
)

#: The backend seam's vocabulary, in increasing order of ambition.
BACKENDS = ("scalar", "batched", "compiled", "auto")


def resolve_backend(backend: str) -> str:
    """Validate a backend request.

    ``"auto"`` stays symbolic here; it is resolved per *unit* (compiled
    when the unit lowers and the C kernel is live, batched otherwise).
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; valid: {BACKENDS}"
        )
    return backend


__all__ = [
    "AcceleratedUnit",
    "BACKENDS",
    "CompiledEngine",
    "KernelPlan",
    "KernelProvider",
    "PlanEngine",
    "accelerate_unit",
    "build_engine",
    "build_plan",
    "get_provider",
    "provider_failures",
    "reset_provider_cache",
    "resolve_backend",
    "warn_compiled_unavailable",
]
