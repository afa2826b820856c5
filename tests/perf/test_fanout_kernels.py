"""Zero-copy fan-out: items ship as specs, not arrays.

Satellite regression tests for the compiled-tier PR: a sweep work item
must pickle to O(spec) bytes regardless of trial count or unit size;
workers cache built engines per ALU spec; and a parallel compiled run
is byte-identical to a serial scalar one.
"""

import pickle

import pytest

from repro.experiments.figures import _sweep_items, run_figure
from repro.perf import ALUSpec, CampaignWorkItem, PolicySpec, executor
from repro.perf.executor import (
    _WORKER_UNITS,
    CampaignExecutor,
    _execute_item,
)

#: Generous ceiling for one pickled work item.  An item that ships a
#: mask array (site_count x trials bits) or a pixel payload blows well
#: past this; a pure spec is a few hundred bytes.
ITEM_PICKLE_BUDGET = 1024


class TestPickleSize:
    @pytest.mark.parametrize("variant", ["alunn", "aluss"])  # small, largest
    @pytest.mark.parametrize("trials", [1, 500])
    def test_item_pickles_under_budget(self, variant, trials):
        item = CampaignWorkItem(
            alu=ALUSpec.variant(variant),
            policy=PolicySpec.exact(0.03),
            trials_per_workload=trials,
        )
        size = len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        assert size < ITEM_PICKLE_BUDGET, (
            f"work item pickles to {size}B; payload must stay O(spec), "
            f"independent of trials ({trials}) and unit size ({variant})"
        )

    def test_item_size_independent_of_scale(self):
        """Doubling trials or unit size must not grow the payload."""
        def size(variant, trials):
            return len(pickle.dumps(CampaignWorkItem(
                alu=ALUSpec.variant(variant),
                policy=PolicySpec.exact(0.03),
                trials_per_workload=trials,
            )))

        # A bigger trial count may cost a few bytes of varint, never a
        # payload; unit size must not show up at all.
        assert size("aluss", 1000) - size("aluss", 1) <= 8
        assert abs(size("aluss", 5) - size("alunn", 5)) <= 8

    def test_default_sweep_ships_no_bitmap(self):
        """Figure sweeps over the default gradient ship bitmap=None; the
        worker rebuilds the 8x8 gradient locally."""
        items = _sweep_items(
            ("alunn",), (0, 3.0), None, 5, 2004, "auto"
        )
        assert all(item.bitmap is None for item in items)
        chunk_size = len(pickle.dumps(items))
        assert chunk_size < ITEM_PICKLE_BUDGET * len(items)


class TestWorkerEngineCache:
    def test_engines_cached_per_spec(self):
        _WORKER_UNITS.clear()
        spec = ALUSpec.variant("alunn")
        item = CampaignWorkItem(
            alu=spec,
            policy=PolicySpec.exact(0.02),
            trials_per_workload=1,
            backend="compiled",
        )
        first = _execute_item(item)
        assert spec in _WORKER_UNITS
        unit, engine = _WORKER_UNITS[spec]
        assert engine is not None
        # A second item over the same spec reuses unit and engine.
        second = _execute_item(item)
        assert _WORKER_UNITS[spec][0] is unit
        assert _WORKER_UNITS[spec][1] is engine
        assert first.trials == second.trials

    def test_by_seed_vs_with_array_counters(self):
        from repro.obs import Observer, observing
        from repro.workloads.bitmap import gradient

        obs = Observer()
        spec_item = CampaignWorkItem(
            alu=ALUSpec.variant("alunn"),
            policy=PolicySpec.exact(0.0),
            trials_per_workload=1,
        )
        array_item = CampaignWorkItem(
            alu=ALUSpec.variant("alunn"),
            policy=PolicySpec.exact(0.0),
            trials_per_workload=1,
            bitmap=gradient(4, 4),
        )
        with observing(obs):
            _execute_item(spec_item)
            _execute_item(array_item)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["kernel.items_by_seed"] == 1
        assert counters["kernel.items_with_array"] == 1


class TestWorkerWorkloadCache:
    """Items without a custom bitmap share one compiled pair of default
    workloads per process; a custom bitmap still compiles its own."""

    def test_default_workloads_compile_once(self, monkeypatch):
        from repro.workloads import imaging
        from repro.workloads.bitmap import gradient

        calls = []
        real = imaging.paper_workloads

        def counting(bitmap):
            calls.append(bitmap)
            return real(bitmap)

        monkeypatch.setattr(imaging, "paper_workloads", counting)
        executor._default_workloads.cache_clear()
        item = CampaignWorkItem(
            alu=ALUSpec.variant("alunn"),
            policy=PolicySpec.exact(0.05),
            trials_per_workload=2,
        )
        first = _execute_item(item)
        second = _execute_item(item)
        assert len(calls) == 1
        assert first.trials == second.trials
        # The cached pair is the paper's pair, frozen.
        cached = executor._default_workloads()
        fresh = real(gradient(8, 8))
        assert {k: list(v) for k, v in cached.items()} == fresh
        with pytest.raises(TypeError):
            cached["extra"] = ()
        custom = CampaignWorkItem(
            alu=ALUSpec.variant("alunn"),
            policy=PolicySpec.exact(0.05),
            trials_per_workload=2,
            bitmap=gradient(4, 4),
        )
        _execute_item(custom)
        _execute_item(custom)
        assert len(calls) == 3
        executor._default_workloads.cache_clear()


class TestParallelCompiledIdentity:
    def test_jobs_n_byte_identity_across_backends(self):
        """run_figure(jobs=2, compiled) == run_figure(jobs=1, scalar)."""
        percents = (0, 2.0, 30.0)
        kwargs = dict(
            fault_percents=percents, trials_per_workload=2, seed=11
        )
        serial_scalar = run_figure(
            "figure7", jobs=1, backend="scalar", **kwargs
        )
        parallel_compiled = run_figure(
            "figure7", jobs=2, backend="compiled", **kwargs
        )
        assert serial_scalar.to_text() == parallel_compiled.to_text()
        assert serial_scalar.points == parallel_compiled.points

    def test_executor_order_stable_with_mixed_chunks(self):
        items = [
            CampaignWorkItem(
                alu=ALUSpec.variant("alunn"),
                policy=PolicySpec.exact(p / 100.0),
                trials_per_workload=1,
                backend="compiled",
            )
            for p in (0, 1, 2, 3)
        ]
        serial = CampaignExecutor(jobs=1).run(items)
        parallel = CampaignExecutor(jobs=2, chunk_size=1).run(items)
        assert [r.trials for r in serial] == [r.trials for r in parallel]
