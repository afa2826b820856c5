"""Campaign-facing plan engines: one packed-word API, two executors.

A unit lowered to a :class:`~repro.kernels.plan.KernelPlan` evaluates
a whole batch of instructions over *packed* ``uint64`` fault words, the
rows exactly as ``MaskPolicy.generate_batch`` draws them.  Two engines
run the plan:

* :class:`CompiledEngine` -- the generated C kernel (the ``compiled``
  tier), one native call per batch;
* :class:`repro.alu.batched.BatchedEngine` -- the NumPy executor (the
  ``batched`` tier), used when no C compiler is available.

Both share :class:`PlanEngine`'s input validation and results, bit for
bit.  :func:`build_engine` picks the engine for a backend request.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.alu.base import ALUResult, FaultableUnit
from repro.faults.packing import WORD_DTYPE, int_to_words, words_for_sites
from repro.kernels.plan import H_IMAP, KernelPlan, build_plan
from repro.kernels.providers import KernelProvider, get_provider
from repro.obs import get_observer

_RESULT_MASK = 0xFF


class PlanEngine:
    """One lowered unit bound to an executor.

    Subclasses implement ``bundles_words``; ``tier`` names the backend
    (``"batched"`` or ``"compiled"``) the engine runs.
    """

    tier = ""

    def __init__(self, plan: KernelPlan) -> None:
        self._plan = plan
        self._site_count = plan.site_count
        self._n_words = words_for_sites(plan.site_count)
        imap = int(plan.header[H_IMAP])
        self._internal_map = plan.ipool[imap : imap + 8]

    @property
    def site_count(self) -> int:
        return self._site_count

    @property
    def n_words(self) -> int:
        """Packed ``uint64`` words per mask row for this unit."""
        return self._n_words

    def _batch(
        self,
        ops: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        words: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Validate one batch; returns contiguous ``int64`` ``ops``/``a``/
        ``b`` and ``uint64`` words, or raises :class:`ValueError`."""
        ops, a, b = (np.asarray(x) for x in (ops, a, b))
        if not (ops.ndim == a.ndim == b.ndim == 1
                and ops.shape == a.shape == b.shape):
            raise ValueError(
                "ops, a and b must be 1-D and of one length, got shapes "
                f"{ops.shape}, {a.shape}, {b.shape}"
            )
        ops, a, b = (np.ascontiguousarray(x, dtype=np.int64) for x in (ops, a, b))
        if np.any((ops < 0) | (ops > 7)):
            raise ValueError("opcode out of 3-bit range in batch")
        internal = self._internal_map[ops]
        if np.any(internal < 0):
            bad = int(ops[internal < 0][0])
            raise ValueError(f"invalid opcode {bad:#05b} in batch")
        if np.any((a < 0) | (a > _RESULT_MASK)):
            raise ValueError("operand a out of 8-bit range in batch")
        if np.any((b < 0) | (b > _RESULT_MASK)):
            raise ValueError("operand b out of 8-bit range in batch")
        words = np.asarray(words)
        if words.shape != (ops.shape[0], self._n_words):
            raise ValueError(
                f"words shape {words.shape} != ({ops.shape[0]}, {self._n_words})"
            )
        words = np.ascontiguousarray(words.astype(WORD_DTYPE, copy=False))
        return ops, a, b, words.view(np.uint64)

    def bundles_words(
        self,
        ops: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        words: np.ndarray,
    ) -> np.ndarray:
        """9-bit result bundles (value | carry << 8) for a batch.

        Args:
            ops: ``(n,)`` architectural 3-bit opcodes.
            a, b: ``(n,)`` 8-bit operands.
            words: ``(n, n_words)`` packed ``uint64`` mask rows, exactly
                as drawn by ``MaskPolicy.generate_batch``.
        """
        raise NotImplementedError

    def values_words(
        self,
        ops: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        words: np.ndarray,
    ) -> np.ndarray:
        """8-bit result values (the campaign's scoring quantity)."""
        return self.bundles_words(ops, a, b, words) & _RESULT_MASK


class CompiledEngine(PlanEngine):
    """A plan run by the process's C kernel provider."""

    tier = "compiled"

    def __init__(self, plan: KernelPlan, provider: KernelProvider) -> None:
        super().__init__(plan)
        self._eval = provider.eval_fn
        self._scratch = np.zeros(plan.scratch_size, dtype=np.uint8)

    def bundles_words(self, ops, a, b, words):
        """One native call over the batch (see :meth:`PlanEngine.bundles_words`)."""
        ops, a, b, words = self._batch(ops, a, b, words)
        n = ops.shape[0]
        out = np.empty(n, dtype=np.int64)
        self._eval(
            self._plan.header, self._plan.ipool, self._plan.bpool,
            ops, a, b, words.reshape(-1), n, self._n_words, out, self._scratch,
        )
        return out


def build_engine(unit, backend: str = "auto") -> Optional[PlanEngine]:
    """The unit's plan on the executor ``backend`` names, or ``None``.

    ``compiled`` is the C kernel, ``batched`` the NumPy executor, and
    ``auto`` the C kernel when a provider is live, else NumPy.
    ``None`` means the request has no engine: ``scalar``, a unit with no
    lowered form, or ``compiled`` with no provider live.  Results are
    identical on every engine.  A defective part gets its pristine
    design's engine behind a defect overlay on the packed mask words.
    """
    from repro.faults.defects import DefectiveUnit

    if isinstance(unit, DefectiveUnit):
        engine = build_engine(unit.pristine_unit, backend)
        return None if engine is None else unit.overlay(engine)
    provider = None if backend in ("scalar", "batched") else get_provider()
    if backend == "scalar" or (backend == "compiled" and provider is None):
        return None
    plan = build_plan(unit)
    if plan is None:
        return None
    if provider is None:
        from repro.alu.batched import BatchedEngine

        return BatchedEngine(plan)
    engine = CompiledEngine(plan, provider)
    obs = get_observer()
    obs.metrics.counter("kernel.engines_built").inc()
    # First-call warmup outside every campaign timer.
    with obs.metrics.time("kernel.warmup"):
        engine.bundles_words(
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros((1, engine.n_words), dtype=WORD_DTYPE),
        )
    return engine


class AcceleratedUnit(FaultableUnit):
    """A unit whose executions run on a :class:`CompiledEngine`.

    Lets grid cells ride the compiled tier: a compute tick evaluates the
    rows of every cell sharing the unit in one call on :attr:`engine`
    (:func:`repro.cell.aluctrl.evaluate_rows`), and so do probe rounds.
    ``compute`` stays for scalar callers: each call is a batch of one.
    Everything else -- site layout, storage images -- delegates to the
    wrapped unit, and any input the kernel does not model (invalid
    opcodes, out-of-range operands or masks) is delegated wholesale so
    error behaviour stays canonical.
    """

    def __init__(self, unit: FaultableUnit, engine: CompiledEngine) -> None:
        self._unit = unit
        self._engine = engine
        self._ops = np.zeros(1, dtype=np.int64)
        self._a = np.zeros(1, dtype=np.int64)
        self._b = np.zeros(1, dtype=np.int64)
        self._words = np.zeros((1, engine.n_words), dtype=WORD_DTYPE)

    @property
    def wrapped(self) -> FaultableUnit:
        """The scalar unit this facade accelerates."""
        return self._unit

    @property
    def engine(self) -> CompiledEngine:
        """The compiled engine behind ``compute`` (batches of any size)."""
        return self._engine

    @property
    def site_space(self):
        return self._unit.site_space

    def compute(self, op: int, a: int, b: int, fault_mask: int = 0) -> ALUResult:
        if not (
            0 <= op <= 7
            and 0 <= a <= 0xFF
            and 0 <= b <= 0xFF
            and fault_mask >= 0
            and fault_mask >> self._unit.site_count == 0
        ):
            return self._unit.compute(op, a, b, fault_mask=fault_mask)
        self._ops[0] = op
        self._a[0] = a
        self._b[0] = b
        self._words[0] = int_to_words(fault_mask, self._unit.site_count)
        try:
            bundle = int(
                self._engine.bundles_words(
                    self._ops, self._a, self._b, self._words
                )[0]
            )
        except ValueError:
            # e.g. an opcode with no internal encoding: the scalar unit
            # owns the canonical error message.
            return self._unit.compute(op, a, b, fault_mask=fault_mask)
        return ALUResult.from_bundle(bundle)

    def __getattr__(self, name: str):
        return getattr(self._unit, name)


def accelerate_unit(unit: FaultableUnit, backend: str = "auto") -> FaultableUnit:
    """Wrap a unit so scalar ``compute`` calls run on the compiled tier.

    ``backend`` follows the campaign seam: ``"scalar"``/``"batched"``
    return the unit unchanged (there is no per-call batching to exploit
    here), ``"auto"`` wraps when a compiled engine is available and
    silently returns the original otherwise, ``"compiled"`` warns once
    on stderr before degrading.
    """
    from repro.kernels import resolve_backend
    from repro.kernels.providers import warn_compiled_unavailable

    if resolve_backend(backend) in ("scalar", "batched"):
        return unit
    engine = build_engine(unit, "compiled")
    if engine is None:
        if backend == "compiled":
            warn_compiled_unavailable("no provider or unsupported unit")
        return unit
    return AcceleratedUnit(unit, engine)
