"""The never-perturb guarantee, pinned.

Observability must be a pure read-out: installing an observer must not
change any experiment result -- not one RNG draw, not one packet.  These
differential tests run the same experiment bare and observed and assert
the outputs are *equal* (the result objects are frozen value types over
ints, so dataclass equality is byte-level identity of the outcome).
CI runs this module explicitly as the observability determinism gate.
"""

from repro.alu.variants import build_alu
from repro.experiments.defect_yield import yield_at
from repro.experiments.lifecycle import (
    lifecycle_table_text,
    run_lifecycle_point,
    self_healing_policy,
)
from repro.faults.campaign import FaultCampaign
from repro.faults.mask import ExactFractionMask
from repro.faults.temporal import TemporalFaultProcess
from repro.obs import Observer, observing
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads
from tests.grid.dense_oracle import dense_engine


def _observed(fn):
    """Run ``fn`` under a fresh observer; return (result, observer)."""
    obs = Observer()
    with observing(obs):
        result = fn()
    return result, obs


class TestCampaignUnperturbed:
    def _suite(self, backend):
        campaign = FaultCampaign(
            build_alu("alunn"), ExactFractionMask(0.03), seed=11
        )
        return campaign.run_workload_suite(
            paper_workloads(gradient(8, 8)), 2, backend=backend
        )

    def test_scalar_suite_identical(self):
        bare = self._suite(backend="scalar")
        observed, obs = _observed(lambda: self._suite(backend="scalar"))
        assert observed == bare
        assert obs.metrics.counter("campaign.trials").value == 4

    def test_batched_suite_identical(self, kernel_provider):
        bare = self._suite(backend="batched")
        observed, obs = _observed(lambda: self._suite(backend="batched"))
        assert observed == bare
        # Scalar and batched also agree with each other, observed or not.
        assert observed == self._suite(backend="scalar")
        assert obs.trace.events_of("trial_end")
        # The draw counters name the path that drew every mask.
        drawn, idle = "native", "numpy"
        if kernel_provider is None:
            drawn, idle = idle, drawn
        assert obs.metrics.counter(f"kernel.mask.{drawn}").value == sum(
            t.total for t in observed.trials
        )
        assert obs.metrics.counter(f"kernel.mask.{idle}").value == 0


class TestYieldUnperturbed:
    def test_yield_point_identical(self, kernel_provider):
        """Defective parts on the default tier: an observed yield point
        equals a bare one, and every defect campaign ran compiled (with
        a live provider) or batched (without one)."""
        n_parts = 4

        def point():
            return yield_at("aluscmos", 5e-3, n_parts=n_parts, seed=2004)

        bare = point()
        observed, obs = _observed(point)
        assert observed == bare
        tier, other = "compiled", "batched"
        if kernel_provider is None:
            tier, other = other, tier
        # Two campaigns per part: defects only, then with transients.
        assert obs.metrics.counter(f"kernel.backend.{tier}").value == (
            2 * n_parts
        )
        assert obs.metrics.counter(f"kernel.backend.{other}").value == 0
        assert obs.metrics.counter("kernel.backend.scalar").value == 0


class TestExecutorUnperturbed:
    def _items(self):
        from repro.perf import ALUSpec, CampaignWorkItem, PolicySpec

        return [
            CampaignWorkItem(
                alu=ALUSpec.variant("alunn"),
                policy=PolicySpec.exact(0.03),
                trials_per_workload=1,
                seed=3,
            )
            for _ in range(4)
        ]

    def test_parallel_run_identical_and_metrics_merged(self):
        from repro.perf import CampaignExecutor

        bare = CampaignExecutor(jobs=2, chunk_size=1).run(self._items())
        observed, obs = _observed(
            lambda: CampaignExecutor(jobs=2, chunk_size=1).run(self._items())
        )
        assert observed == bare
        # Worker-side campaign counters came home through the fold.
        assert obs.metrics.counter("campaign.trials").value == 8
        assert obs.metrics.counter("executor.chunks").value == 4
        # Worker trace shards were merged under per-chunk sources.
        sources = {e.source for e in obs.trace.events}
        assert any(s.startswith("chunk") for s in sources)


class TestLifecycleUnperturbed:
    def _point(self):
        return run_lifecycle_point(
            TemporalFaultProcess.intermittent(
                rate=0.0015, burst_length=5, errors_per_cycle=3
            ),
            self_healing_policy(),
            jobs=2,
            n_instructions=24,
            seed=2004,
        )

    def test_lifecycle_point_identical(self):
        bare = self._point()
        observed, obs = _observed(self._point)
        assert observed == bare
        assert lifecycle_table_text([observed]) == lifecycle_table_text([bare])
        # The watchdog and control layers reported through the observer.
        assert obs.metrics.counter("control.jobs").value == 2
        assert obs.trace.events_of("job_start")

    def test_sparse_temporal_point_identical(self, kernel_provider):
        """The scheduler's batched fault-stream scans are pure too: an
        observed run equals a bare one and the dense oracle."""

        def point():
            return run_lifecycle_point(
                TemporalFaultProcess.transient(0.004, errors_per_cycle=3),
                self_healing_policy(),
                jobs=2,
                n_instructions=24,
                seed=2004,
            )

        bare = point()
        observed, obs = _observed(point)
        with dense_engine():
            oracle = point()
        assert observed == bare == oracle
        # The tape counters name the path that scanned every stream.
        scanned, idle = "native", "numpy"
        if kernel_provider is None:
            scanned, idle = idle, scanned
        assert obs.metrics.counter(f"kernel.tape.{scanned}").value >= 16
        assert obs.metrics.counter(f"kernel.tape.{idle}").value == 0
