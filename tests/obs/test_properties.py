"""Property tests for the observability layer.

Three contracts the instrumentation relies on:

* histogram quantiles behave like order statistics (monotone in ``q``,
  pinned to min/max at the ends, always inside [min, max]);
* counter merge is associative (and commutative), so the executor may
  fold worker snapshots in any grouping -- chunk arrival order, retry
  order -- and report identical totals;
* trace events are totally ordered per source, and that order survives
  the extend-merge of worker shards into the parent log;
* merging a snapshot into an empty registry is lossless: the new
  registry's own snapshot is identical, so a worker's metrics reach the
  parent exactly.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, TraceLog
from repro.obs.metrics import Histogram

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)

counter_snapshots = st.dictionaries(
    st.sampled_from(
        ["campaign.trials", "campaign.faults_injected", "control.jobs",
         "watchdog.probes", "executor.retries"]
    ),
    st.integers(min_value=0, max_value=10**9),
    max_size=5,
)


class TestHistogramQuantileInvariants:
    @given(samples=st.lists(finite_floats, min_size=1, max_size=64))
    def test_endpoints_and_bounds(self, samples):
        histogram = Histogram("h")
        for s in samples:
            histogram.observe(s)
        assert histogram.quantile(0.0) == min(samples)
        assert histogram.quantile(1.0) == max(samples)
        for q in (0.1, 0.25, 0.5, 0.9):
            assert min(samples) <= histogram.quantile(q) <= max(samples)

    @given(
        samples=st.lists(finite_floats, min_size=1, max_size=64),
        qs=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8
        ),
    )
    def test_quantile_monotone_in_q(self, samples, qs):
        histogram = Histogram("h")
        for s in samples:
            histogram.observe(s)
        values = [histogram.quantile(q) for q in sorted(qs)]
        assert values == sorted(values)

    @given(samples=st.lists(finite_floats, min_size=1, max_size=200))
    def test_exact_accounting_survives_thinning(self, samples):
        histogram = Histogram("h", max_samples=16)
        for s in samples:
            histogram.observe(s)
        assert histogram.count == len(samples)
        assert abs(histogram.total - sum(samples)) <= 1e-6 * max(
            1.0, abs(sum(samples))
        )
        assert histogram.min == min(samples)
        assert histogram.max == max(samples)


def _fold(snapshots):
    """Fold snapshots left-to-right into a fresh registry."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot({"counters": snapshot})
    return {c.name: c.value for c in registry.counters()}


class TestCounterMergeAssociativity:
    @given(snaps=st.lists(counter_snapshots, min_size=3, max_size=3))
    def test_grouping_does_not_matter(self, snaps):
        a, b, c = snaps
        # (a + b) + c
        left = MetricsRegistry()
        left.merge_snapshot({"counters": a})
        left.merge_snapshot({"counters": b})
        left_then_c = MetricsRegistry()
        left_then_c.merge_snapshot(left.snapshot())
        left_then_c.merge_snapshot({"counters": c})
        # a + (b + c)
        right = MetricsRegistry()
        right.merge_snapshot({"counters": b})
        right.merge_snapshot({"counters": c})
        a_then_right = MetricsRegistry()
        a_then_right.merge_snapshot({"counters": a})
        a_then_right.merge_snapshot(right.snapshot())
        assert (
            left_then_c.snapshot()["counters"]
            == a_then_right.snapshot()["counters"]
        )

    @given(snaps=st.lists(counter_snapshots, min_size=1, max_size=6))
    def test_any_permutation_matches(self, snaps):
        expected = _fold(snaps)
        assert _fold(list(reversed(snaps))) == expected


class TestExecutorWorkerMerge:
    """Counter merge across real CampaignExecutor worker snapshots."""

    @settings(deadline=None)
    @given(chunk_sizes=st.lists(
        st.integers(min_value=1, max_value=4), min_size=2, max_size=4
    ))
    def test_chunked_fold_equals_serial_tally(self, chunk_sizes):
        # Simulate each worker's registry, then fold in arbitrary chunk
        # groupings -- the totals must match a single serial registry.
        serial = MetricsRegistry()
        shards = []
        trial = 0
        for size in chunk_sizes:
            shard = MetricsRegistry()
            for _ in range(size):
                for registry in (serial, shard):
                    registry.counter("campaign.trials").inc()
                    registry.counter("campaign.instructions").inc(64)
                trial += 1
            shards.append(shard.snapshot())
        merged = MetricsRegistry()
        for snapshot in shards:
            merged.merge_snapshot(snapshot)
        assert (
            merged.snapshot()["counters"] == serial.snapshot()["counters"]
        )


metric_names = st.sampled_from(
    ["campaign.trials", "bench.run", "grid.alive", "executor.chunk"]
)

registry_contents = st.tuples(
    st.dictionaries(  # counters
        metric_names, st.integers(min_value=0, max_value=10**9), max_size=4
    ),
    st.dictionaries(  # gauges
        metric_names, finite_floats, max_size=4
    ),
    st.dictionaries(  # histogram samples
        metric_names,
        st.lists(finite_floats, min_size=1, max_size=32),
        max_size=3,
    ),
)


class TestSnapshotRoundTrip:
    @staticmethod
    def build(contents):
        counters, gauges, samples = contents
        registry = MetricsRegistry()
        for name, value in counters.items():
            registry.counter(name).inc(value)
        for name, value in gauges.items():
            registry.gauge(name).set(value)
        for name, values in samples.items():
            histogram = registry.histogram(name)
            for value in values:
                histogram.observe(value)
        return registry

    @staticmethod
    def rehydrate(snapshot):
        registry = MetricsRegistry()
        registry.merge_snapshot(snapshot)
        return registry

    @given(contents=registry_contents)
    def test_merge_into_empty_registry_is_identity(self, contents):
        registry = self.build(contents)
        rehydrated = self.rehydrate(registry.snapshot())
        assert rehydrated.snapshot() == registry.snapshot()

    @given(contents=registry_contents)
    def test_json_form_round_trips(self, contents):
        registry = self.build(contents)
        rehydrated = self.rehydrate(json.loads(registry.to_json()))
        assert rehydrated.to_json() == registry.to_json()

    @given(contents=registry_contents)
    def test_rehydrated_instruments_are_live(self, contents):
        registry = self.build(contents)
        rehydrated = self.rehydrate(registry.snapshot())
        rehydrated.counter("campaign.trials").inc(3)
        baseline = registry.counter("campaign.trials").value
        assert rehydrated.counter("campaign.trials").value == baseline + 3


class TestTracePerSourceTotalOrder:
    emissions = st.lists(
        st.tuples(
            st.sampled_from(["campaign", "control", "watchdog"]),
            st.sampled_from(["trial_start", "trial_end", "probe_result"]),
        ),
        max_size=60,
    )

    @given(emissions=emissions)
    def test_seq_totally_orders_each_source(self, emissions):
        log = TraceLog(clock=lambda: 0.0)
        for index, (source, kind) in enumerate(emissions):
            log.emit(kind, source=source, index=index)
        for source in ("campaign", "control", "watchdog"):
            events = log.events_from(source)
            seqs = [e.seq for e in events]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
            # Emission order is recoverable from seq alone.
            indices = [e.fields["index"] for e in events]
            assert indices == sorted(indices)

    @given(
        shard_a=emissions,
        shard_b=emissions,
    )
    def test_order_survives_extend_merge(self, shard_a, shard_b):
        logs = []
        for shard in (shard_a, shard_b):
            log = TraceLog(clock=lambda: 0.0)
            for index, (source, kind) in enumerate(shard):
                log.emit(kind, source=source, index=index)
            logs.append(log)
        parent = TraceLog(clock=lambda: 0.0)
        parent.extend(logs[0].to_records(), source_prefix="chunk0")
        parent.extend(logs[1].to_records(), source_prefix="chunk1")
        seqs = [e.seq for e in parent.events]
        assert seqs == sorted(seqs)
        for prefix, shard in (("chunk0", shard_a), ("chunk1", shard_b)):
            for source in ("campaign", "control", "watchdog"):
                merged = parent.events_from(f"{prefix}/{source}")
                indices = [e.fields["index"] for e in merged]
                assert indices == sorted(indices)
