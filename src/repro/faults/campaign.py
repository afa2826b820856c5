"""Monte Carlo fault-injection campaign runner.

Drives any fault-maskable compute unit (anything exposing ``site_count``
and ``compute(op, a, b, fault_mask)`` returning an object with a ``value``
attribute -- all :mod:`repro.alu` module-level ALUs qualify) through a
workload, drawing a fresh fault mask per instruction exactly as the paper's
VHDL testbench does, and scoring the fraction of instructions whose 8-bit
result matches the expected value.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.bits import popcount
from repro.faults.mask import MaskPolicy
from repro.faults.packing import unpack_flags, words_for_sites, words_to_int
from repro.faults.stats import SampleStats, summarize
from repro.obs import get_observer

#: One workload instruction: (opcode, operand1, operand2, expected result).
Instruction = Tuple[int, int, int, int]

#: Sentinel distinguishing "not built yet" from "built, unsupported (None)".
_UNSET = object()


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one pass over a workload with one fault-mask stream."""

    total: int
    correct: int
    injected_faults: int

    @property
    def percent_correct(self) -> float:
        """The paper's y-axis: percent of instructions which are correct."""
        if self.total == 0:
            return 100.0
        return 100.0 * self.correct / self.total


@dataclass(frozen=True)
class CampaignResult:
    """Aggregate of several trials at one injected-fault setting."""

    trials: Tuple[TrialResult, ...]

    @property
    def stats(self) -> SampleStats:
        """Summary statistics over per-trial percent-correct scores."""
        return summarize([t.percent_correct for t in self.trials])

    @property
    def percent_correct(self) -> float:
        """Mean percent-correct over all trials (the plotted data point)."""
        return self.stats.mean

    @property
    def total_injected_faults(self) -> int:
        return sum(t.injected_faults for t in self.trials)


class FaultCampaign:
    """Reusable campaign harness bound to one compute unit.

    Args:
        alu: fault-maskable compute unit (``site_count`` +
            ``compute(op, a, b, fault_mask)``).
        policy: fault-mask generation policy (fraction per computation).
        seed: base PRNG seed; each trial derives an independent child
            stream so trials are reproducible and order-independent.
    """

    def __init__(self, alu, policy: MaskPolicy, seed: int = 0) -> None:
        self._alu = alu
        self._policy = policy
        self._seed = seed
        self._batched_engine = _UNSET  # built lazily on first batched run
        self._compiled_engine = _UNSET  # built lazily on first compiled run

    @property
    def policy(self) -> MaskPolicy:
        return self._policy

    def _rng_for_trial(
        self, trial: int, workload: Optional[str] = None
    ) -> np.random.Generator:
        """Per-trial child stream, optionally namespaced by workload name.

        The workload namespace (a CRC-32 of the name folded into the
        ``SeedSequence``) keeps each workload's trial streams independent:
        adding or removing a workload from a suite no longer shifts any
        other workload's masks.
        """
        if workload is None:
            entropy = [self._seed, trial]
        else:
            entropy = [self._seed, zlib.crc32(workload.encode("utf-8")), trial]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def _engine(self):
        """The unit's batched evaluator, or ``None`` for scalar fallback."""
        if self._batched_engine is _UNSET:
            from repro.alu.batched import build_batched_unit

            self._batched_engine = build_batched_unit(self._alu)
        return self._batched_engine

    def _compiled(self):
        """The unit's compiled evaluator, or ``None`` for batched fallback.

        Built (and JIT-warmed) on first use -- outside every trial/suite
        timer, so compile cost never pollutes campaign timings.
        """
        if self._compiled_engine is _UNSET:
            from repro.kernels import build_compiled_unit

            self._compiled_engine = build_compiled_unit(self._alu)
        return self._compiled_engine

    def use_engines(self, batched=_UNSET, compiled=_UNSET) -> None:
        """Install pre-built evaluation engines (worker-pool cache hook).

        A fan-out worker runs many campaigns over the same unit family;
        rebuilding the batched/compiled engines per campaign would waste
        more time than evaluation itself.  Engines are stateless across
        calls, so sharing them never perturbs results.
        """
        if batched is not _UNSET:
            self._batched_engine = batched
        if compiled is not _UNSET:
            self._compiled_engine = compiled

    def built_engines(self) -> Dict[str, object]:
        """Engines this campaign has materialised so far.

        The inverse of :meth:`use_engines`: a fan-out worker runs one
        campaign, harvests whatever engines it built (``"batched"`` /
        ``"compiled"`` keys; values may be ``None`` for units with no
        such form -- that verdict is worth caching too), and seeds the
        next campaign over the same unit spec.
        """
        built: Dict[str, object] = {}
        if self._batched_engine is not _UNSET:
            built["batched"] = self._batched_engine
        if self._compiled_engine is not _UNSET:
            built["compiled"] = self._compiled_engine
        return built

    def resolve_backend(self, backend: str = "auto") -> str:
        """The effective tier for this unit: scalar, batched, or compiled.

        ``auto`` selects compiled exactly when this unit has a live
        compiled engine, silently falling back to batched otherwise.  An
        explicit ``compiled`` request without an engine degrades to
        batched with a one-time stderr warning -- unless the *unit* is
        the unsupported part while a provider is live, which mirrors the
        batched tier's silent scalar fallback for unvectorizable units.
        """
        from repro.kernels import resolve_backend as _resolve

        requested = _resolve(backend)
        if requested == "auto":
            effective = "compiled" if self._compiled() is not None else "batched"
        elif requested == "compiled" and self._compiled() is None:
            from repro.kernels import get_provider
            from repro.kernels.providers import warn_compiled_unavailable

            if get_provider() is None:
                warn_compiled_unavailable("no Numba and no C compiler")
            effective = "batched"
        else:
            effective = requested
        get_observer().metrics.counter(f"kernel.backend.{effective}").inc()
        return effective

    def run_workload(
        self,
        instructions: Sequence[Instruction],
        trial: int = 0,
        workload: Optional[str] = None,
    ) -> TrialResult:
        """Run one trial: fresh mask per instruction, score 8-bit results."""
        obs = get_observer()
        source = f"campaign/{workload}" if workload else "campaign"
        if obs.enabled:
            obs.trace.emit(
                "trial_start",
                source=source,
                trial=trial,
                instructions=len(instructions),
                batched=False,
            )
        rng = self._rng_for_trial(trial, workload)
        n_sites = self._alu.site_count
        correct = 0
        injected = 0
        with obs.metrics.time("campaign.trial"):
            for op, a, b, expected in instructions:
                mask = self._policy.generate(n_sites, rng)
                injected += popcount(mask)
                result = self._alu.compute(op, a, b, fault_mask=mask)
                if result.value == expected:
                    correct += 1
        self._record_trial(obs, source, trial, len(instructions), correct, injected)
        return TrialResult(
            total=len(instructions), correct=correct, injected_faults=injected
        )

    @staticmethod
    def _record_trial(
        obs, source: str, trial: int, total: int, correct: int, injected: int
    ) -> None:
        """Post one trial's tallies to the active observer (no-op by default)."""
        metrics = obs.metrics
        metrics.counter("campaign.trials").inc()
        metrics.counter("campaign.instructions").inc(total)
        metrics.counter("campaign.faults_injected").inc(injected)
        metrics.counter("campaign.incorrect").inc(total - correct)
        if obs.enabled:
            obs.trace.emit(
                "fault_injected", source=source, trial=trial, count=injected
            )
            obs.trace.emit(
                "trial_end",
                source=source,
                trial=trial,
                total=total,
                correct=correct,
                injected=injected,
            )

    def run_workload_batched(
        self,
        instructions: Sequence[Instruction],
        trial: int = 0,
        workload: Optional[str] = None,
    ) -> TrialResult:
        """Vectorized :meth:`run_workload`: bit-identical, much faster.

        Draws the whole trial's mask stream in one
        :meth:`~repro.faults.mask.MaskPolicy.generate_batch` call and
        evaluates every instruction through the unit's batched NumPy
        engine.  Units without a batched form (CMOS gate netlists,
        gate-level decoders) are evaluated scalar over the same pre-drawn
        masks, so the result is identical to :meth:`run_workload` for the
        same ``(seed, trial, workload)`` in every case.
        """
        obs = get_observer()
        source = f"campaign/{workload}" if workload else "campaign"
        if obs.enabled:
            obs.trace.emit(
                "trial_start",
                source=source,
                trial=trial,
                instructions=len(instructions),
                batched=True,
            )
        rng = self._rng_for_trial(trial, workload)
        n_sites = self._alu.site_count
        n = len(instructions)
        with obs.metrics.time("campaign.trial_batched"):
            words = self._policy.generate_batch(n_sites, n, rng)
            flags = unpack_flags(words, n_sites)
            injected = int(flags.sum())
            engine = self._engine()
            if engine is None:
                correct = 0
                for row, (op, a, b, expected) in enumerate(instructions):
                    mask = words_to_int(words[row])
                    if self._alu.compute(op, a, b, fault_mask=mask).value == expected:
                        correct += 1
            else:
                ops = np.fromiter((i[0] for i in instructions), np.int64, count=n)
                a_ops = np.fromiter((i[1] for i in instructions), np.int64, count=n)
                b_ops = np.fromiter((i[2] for i in instructions), np.int64, count=n)
                expected = np.fromiter(
                    (i[3] for i in instructions), np.int64, count=n
                )
                values = engine.values(ops, a_ops, b_ops, flags)
                correct = int(np.count_nonzero(values == expected))
        self._record_trial(obs, source, trial, n, correct, injected)
        return TrialResult(total=n, correct=correct, injected_faults=injected)

    def run_workload_compiled(
        self,
        instructions: Sequence[Instruction],
        trial: int = 0,
        workload: Optional[str] = None,
    ) -> TrialResult:
        """Compiled-tier :meth:`run_workload`: bit-identical, fastest.

        The trial's mask stream is drawn packed (the same RNG
        consumption as every other tier) and evaluated in place by the
        native kernel -- no per-site flag expansion at all.  Callers
        must have checked :meth:`resolve_backend` first; a unit without
        a compiled engine belongs on the batched path.
        """
        engine = self._compiled()
        if engine is None:
            return self.run_workload_batched(
                instructions, trial=trial, workload=workload
            )
        obs = get_observer()
        source = f"campaign/{workload}" if workload else "campaign"
        if obs.enabled:
            obs.trace.emit(
                "trial_start",
                source=source,
                trial=trial,
                instructions=len(instructions),
                batched=True,
                backend="compiled",
            )
        rng = self._rng_for_trial(trial, workload)
        n_sites = self._alu.site_count
        n = len(instructions)
        with obs.metrics.time("campaign.trial_compiled"):
            words = self._policy.generate_batch(n_sites, n, rng)
            injected = int(np.bitwise_count(words).sum())
            ops = np.fromiter((i[0] for i in instructions), np.int64, count=n)
            a_ops = np.fromiter((i[1] for i in instructions), np.int64, count=n)
            b_ops = np.fromiter((i[2] for i in instructions), np.int64, count=n)
            expected = np.fromiter(
                (i[3] for i in instructions), np.int64, count=n
            )
            values = engine.values_words(ops, a_ops, b_ops, words)
            correct = int(np.count_nonzero(values == expected))
        self._record_trial(obs, source, trial, n, correct, injected)
        return TrialResult(total=n, correct=correct, injected_faults=injected)

    def _runner(self, effective: str):
        if effective == "compiled":
            return self.run_workload_compiled
        if effective == "batched":
            return self.run_workload_batched
        return self.run_workload

    def run_trials(
        self,
        instructions: Sequence[Instruction],
        n_trials: int,
        first_trial: int = 0,
        backend: str = "auto",
    ) -> CampaignResult:
        """Run ``n_trials`` independent trials over the same workload.

        ``backend`` (scalar/batched/compiled/auto) picks the evaluation
        tier; results are identical on every tier.
        """
        if n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {n_trials}")
        run = self._runner(self.resolve_backend(backend))
        trials = tuple(
            run(instructions, trial=first_trial + t) for t in range(n_trials)
        )
        return CampaignResult(trials=trials)

    def run_workload_suite(
        self,
        workloads: Dict[str, Sequence[Instruction]],
        trials_per_workload: int,
        backend: str = "auto",
    ) -> CampaignResult:
        """Paper-style scoring: N trials of each named workload, pooled.

        The paper's plotted points average five trials of each of two image
        workloads (ten samples total); this helper reproduces that pooling.

        Trial streams are namespaced by workload *name* (not suite
        position), so a workload's masks are stable no matter what else is
        in the suite.  (Before PR 2 the stream was derived from the
        position, so adding a workload silently reseeded the others.)

        ``backend`` picks the evaluation tier.  On the compiled tier the
        whole suite -- every workload x trial -- is fused into one
        rectangular mask block and one native kernel dispatch; per-trial
        RNG streams are drawn independently exactly as on the other
        tiers, so the pooled ``TrialResult``s stay bit-identical.
        """
        effective = self.resolve_backend(backend)
        if effective == "compiled":
            return self._run_suite_compiled(workloads, trials_per_workload)
        run = self._runner(effective)
        all_trials: List[TrialResult] = []
        with get_observer().metrics.time("campaign.suite"):
            for name, instructions in sorted(workloads.items()):
                for t in range(trials_per_workload):
                    all_trials.append(run(instructions, trial=t, workload=name))
        return CampaignResult(trials=tuple(all_trials))

    def _run_suite_compiled(
        self,
        workloads: Dict[str, Sequence[Instruction]],
        trials_per_workload: int,
    ) -> CampaignResult:
        """One fused kernel dispatch for the whole suite.

        Stream identity constrains the fusion shape: each (workload,
        trial) draws from its own ``SeedSequence``-derived generator, so
        the RNG *draws* stay per-trial rectangles -- but they land in
        one contiguous block, and evaluation, scoring, and fault
        accounting run once over all rows.
        """
        engine = self._compiled()
        assert engine is not None  # resolve_backend() guarantees it
        obs = get_observer()
        n_sites = self._alu.site_count
        n_words = words_for_sites(n_sites)

        jobs: List[Tuple[str, Sequence[Instruction], int, int]] = []
        total_rows = 0
        for name, instructions in sorted(workloads.items()):
            for t in range(trials_per_workload):
                jobs.append((name, instructions, t, total_rows))
                total_rows += len(instructions)

        with obs.metrics.time("campaign.suite"):
            with obs.metrics.time("campaign.suite_compiled"):
                words = np.empty((total_rows, n_words), dtype=np.uint64)
                per_workload: Dict[str, Tuple[np.ndarray, ...]] = {}
                for name, instructions, t, row in jobs:
                    if obs.enabled:
                        obs.trace.emit(
                            "trial_start",
                            source=f"campaign/{name}",
                            trial=t,
                            instructions=len(instructions),
                            batched=True,
                            backend="compiled",
                        )
                    if name not in per_workload:
                        count = len(instructions)
                        per_workload[name] = tuple(
                            np.fromiter(
                                (i[field] for i in instructions),
                                np.int64,
                                count=count,
                            )
                            for field in range(4)
                        )
                    rng = self._rng_for_trial(t, name)
                    words[row : row + len(instructions)] = (
                        self._policy.generate_batch(
                            n_sites, len(instructions), rng
                        )
                    )
                row_faults = np.bitwise_count(words).sum(axis=1)
                ops = np.concatenate(
                    [per_workload[name][0] for name, *_ in jobs]
                )
                a_ops = np.concatenate(
                    [per_workload[name][1] for name, *_ in jobs]
                )
                b_ops = np.concatenate(
                    [per_workload[name][2] for name, *_ in jobs]
                )
                values = engine.values_words(ops, a_ops, b_ops, words)
                obs.metrics.counter("kernel.fused_rows").inc(total_rows)

            all_trials: List[TrialResult] = []
            for name, instructions, t, row in jobs:
                n = len(instructions)
                expected = per_workload[name][3]
                correct = int(
                    np.count_nonzero(values[row : row + n] == expected)
                )
                injected = int(row_faults[row : row + n].sum())
                self._record_trial(
                    obs, f"campaign/{name}", t, n, correct, injected
                )
                all_trials.append(
                    TrialResult(
                        total=n, correct=correct, injected_faults=injected
                    )
                )
        return CampaignResult(trials=tuple(all_trials))
