"""Monte Carlo fault-injection campaign runner.

Drives any fault-maskable compute unit (anything exposing ``site_count``
and ``compute(op, a, b, fault_mask)`` returning an object with a ``value``
attribute -- all :mod:`repro.alu` module-level ALUs qualify) through a
workload, drawing a fresh fault mask per instruction exactly as the paper's
VHDL testbench does, and scoring the fraction of instructions whose 8-bit
result matches the expected value.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.bits import popcount
from repro.faults.mask import MaskPolicy
from repro.faults.packing import words_for_sites, words_to_int
from repro.faults.stats import SampleStats, summarize
from repro.obs import get_observer

#: One workload instruction: (opcode, operand1, operand2, expected result).
Instruction = Tuple[int, int, int, int]

#: Sentinel distinguishing "not built yet" from "built, unsupported (None)".
_UNSET = object()


@functools.lru_cache(maxsize=32)
def _columns(instructions: Tuple[Instruction, ...]) -> Tuple[np.ndarray, ...]:
    """The opcode, operand and expected-result columns of a workload, as
    read-only int64 arrays; cached, so a workload shared across suites
    (every sweep's default pair) is converted once per process."""
    n = len(instructions)
    columns = tuple(
        np.fromiter((i[field] for i in instructions), np.int64, n)
        for field in range(4)
    )
    for column in columns:
        column.flags.writeable = False
    return columns


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
        self._engine = _UNSET  # built lazily on the first packed run

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

    def use_engine(self, engine) -> None:
        """Install a pre-built plan engine (worker-pool cache hook).

        A fan-out worker runs many campaigns over the same unit family;
        rebuilding the engine per campaign would waste more time than
        evaluation itself.  Engines are stateless across calls, so
        sharing them never perturbs results.
        """
        self._engine = engine

    def built_engine(self):
        """The engine this campaign built or was given, else ``None``.

        The inverse of :meth:`use_engine`: a fan-out worker runs one
        campaign, harvests its engine, and seeds the next campaign over
        the same unit spec.
        """
        return None if self._engine is _UNSET else self._engine

    def resolve_backend(self, backend: str = "auto") -> str:
        """The effective tier for this unit: scalar, batched, or compiled.

        ``auto`` selects compiled exactly when a C kernel provider is
        live and the unit lowers, batched otherwise.  An explicit
        ``compiled`` request with no provider degrades like ``auto``,
        with a one-time stderr warning.  A unit with no lowered form
        reports ``batched`` and runs its scalar ``compute`` over the
        packed mask stream, silently.

        The plan engine is built here on first use -- outside every
        suite timer, so lowering and kernel warmup never pollute
        campaign timings -- and rebuilt only when a later request names
        the other executor.
        """
        from repro.kernels import build_engine, get_provider
        from repro.kernels import resolve_backend as _resolve
        from repro.kernels.providers import warn_compiled_unavailable

        requested = _resolve(backend)
        if requested == "scalar":
            effective = "scalar"
        else:
            native = requested != "batched" and get_provider() is not None
            if requested == "compiled" and not native:
                warn_compiled_unavailable("no working C compiler")
            engine = self._engine
            if engine is _UNSET or (
                engine is not None and (engine.tier == "compiled") != native
            ):
                engine = self._engine = build_engine(
                    self._alu, "compiled" if native else "batched"
                )
            effective = "batched" if engine is None else engine.tier
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

    def _run_packed(
        self, jobs: Sequence[Tuple[Optional[str], Sequence[Instruction], int]]
    ) -> List[TrialResult]:
        """Run ``(workload, instructions, trial)`` jobs on the plan engine.

        Stream identity fixes the draw shape: each job draws its own
        trial stream, exactly as :meth:`run_workload` would, with one
        :meth:`~repro.faults.mask.MaskPolicy.generate_batch` call.  The
        draws land in one packed block, and evaluation, scoring and
        fault accounting run once over all its rows.  A unit with no
        engine runs its scalar ``compute`` over the same rows.  Callers
        must have called :meth:`resolve_backend` first.
        """
        engine = self._engine
        obs = get_observer()
        n_sites = self._alu.site_count
        total_rows = sum(len(instructions) for _, instructions, _ in jobs)
        words = np.empty((total_rows, words_for_sites(n_sites)), np.uint64)
        columns: Dict[Optional[str], Tuple[np.ndarray, ...]] = {}
        row = 0
        for name, instructions, trial in jobs:
            n = len(instructions)
            if obs.enabled:
                obs.trace.emit(
                    "trial_start",
                    source=f"campaign/{name}" if name else "campaign",
                    trial=trial,
                    instructions=n,
                    batched=True,
                )
            if name not in columns:
                columns[name] = _columns(tuple(instructions))
            words[row : row + n] = self._policy.generate_batch(
                n_sites, n, self._rng_for_trial(trial, name)
            )
            row += n
        row_faults = np.bitwise_count(words).sum(axis=1)
        ops, a_ops, b_ops = (
            np.concatenate([columns[name][field] for name, _, _ in jobs])
            for field in range(3)
        )
        if engine is None:
            values = np.fromiter(
                (
                    self._alu.compute(
                        int(ops[r]), int(a_ops[r]), int(b_ops[r]),
                        fault_mask=words_to_int(words[r]),
                    ).value
                    for r in range(total_rows)
                ),
                np.int64,
                total_rows,
            )
        else:
            values = engine.values_words(ops, a_ops, b_ops, words)
        obs.metrics.counter("kernel.fused_rows").inc(total_rows)

        trials: List[TrialResult] = []
        row = 0
        for name, instructions, trial in jobs:
            n = len(instructions)
            correct = int(
                np.count_nonzero(values[row : row + n] == columns[name][3])
            )
            injected = int(row_faults[row : row + n].sum())
            self._record_trial(
                obs, f"campaign/{name}" if name else "campaign", trial, n,
                correct, injected,
            )
            trials.append(
                TrialResult(total=n, correct=correct, injected_faults=injected)
            )
            row += n
        return trials

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
        trial_ids = range(first_trial, first_trial + n_trials)
        if self.resolve_backend(backend) == "scalar":
            trials = [self.run_workload(instructions, trial=t) for t in trial_ids]
        else:
            trials = self._run_packed([(None, instructions, t) for t in trial_ids])
        return CampaignResult(trials=tuple(trials))

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

        ``backend`` picks the evaluation tier.  On the batched and
        compiled tiers the whole suite -- every workload x trial -- is
        fused into one packed mask block and one engine call; per-trial
        RNG streams are drawn independently exactly as on the scalar
        tier, so the pooled ``TrialResult``s stay bit-identical.
        """
        effective = self.resolve_backend(backend)
        jobs = [
            (name, instructions, t)
            for name, instructions in sorted(workloads.items())
            for t in range(trials_per_workload)
        ]
        with get_observer().metrics.time("campaign.suite"):
            if effective == "scalar":
                trials = [
                    self.run_workload(instructions, trial=t, workload=name)
                    for name, instructions, t in jobs
                ]
            else:
                trials = self._run_packed(jobs)
        return CampaignResult(trials=tuple(trials))
