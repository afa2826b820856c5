"""Property tests for the event-driven grid.

Three algebraic contracts keep the event-driven
:class:`~repro.grid.grid.NanoBoxGrid` honest at any scale:

* **Bulk advance**: skipping a quiescent cell for N ticks and crediting
  its beats in one lump must be indistinguishable from N scalar ticks
  -- the event-driven grid's whole premise.  Randomised operation
  schedules (steps, watchdog polls, error bursts, kills, mode switches)
  drive the dense oracle and the grid in lockstep and compare full
  :class:`~repro.grid.engine.GridState` snapshots.
* **Beat crediting**: ``Heartbeat.credit_beats(N)`` equals N ``beat()``
  calls on a quiescent heartbeat, for any N and any decay.
* **Shard merging**: folding region outcomes and observability counter
  snapshots is permutation-invariant, and a sharded fleet soak equals
  the serial unsharded reference no matter how regions are grouped.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cell.heartbeat import Heartbeat
from repro.experiments.fleet import (
    RegionOutcome,
    decode_outcome,
    encode_outcome,
    merge_outcomes,
    run_fleet_region,
    run_fleet_soak,
    shard_fleet,
)
from repro.faults.temporal import TemporalFaultProcess
from repro.grid.engine import GridState
from repro.grid.grid import NanoBoxGrid
from repro.grid.watchdog import LifecyclePolicy, Watchdog
from repro.obs.metrics import MetricsRegistry
from tests.grid.dense_oracle import DenseGrid, dense_engine

#: One fabric op applied identically to the oracle and the grid.  Coordinates are
#: factors in [0, 1) scaled to the grid under test.
fabric_ops = st.lists(
    st.one_of(
        st.tuples(st.just("step"), st.integers(min_value=1, max_value=50)),
        st.tuples(st.just("poll"), st.integers(min_value=1, max_value=5)),
        st.tuples(
            st.just("error"),
            st.tuples(
                st.floats(min_value=0.0, max_value=0.999),
                st.floats(min_value=0.0, max_value=0.999),
                st.integers(min_value=1, max_value=5),
            ),
        ),
        st.tuples(
            st.just("kill"),
            st.tuples(
                st.floats(min_value=0.0, max_value=0.999),
                st.floats(min_value=0.0, max_value=0.999),
            ),
        ),
        st.tuples(st.just("probe"), st.none()),
    ),
    min_size=1,
    max_size=30,
)


def apply_ops(grid, watchdog, ops):
    """Replay one op schedule against a grid/watchdog pair."""
    rows, cols = grid.rows, grid.cols
    for op, arg in ops:
        if op == "step":
            for _ in range(arg):
                grid.step()
        elif op == "poll":
            for _ in range(arg):
                watchdog.poll()
        elif op == "error":
            rf, cf, count = arg
            coord = (int(rf * rows), int(cf * cols))
            if grid._cell_alive(coord):
                grid.cell(*coord).heartbeat.record_error(count)
        elif op == "kill":
            rf, cf = arg
            grid.kill_cell(int(rf * rows), int(cf * cols))
        elif op == "probe":
            watchdog.probe_quarantined()


class TestBulkAdvanceEquivalence:
    """Quiescent bulk skip == scalar per-cell ticks, for any op schedule."""

    @settings(deadline=None, max_examples=60)
    @given(
        ops=fabric_ops,
        decay=st.sampled_from([0.0, 0.25, 1.0]),
        threshold=st.integers(min_value=1, max_value=4),
    )
    def test_random_schedules_stay_identical(self, ops, decay, threshold):
        states = []
        for grid_cls in (DenseGrid, NanoBoxGrid):
            grid = grid_cls(
                4, 4, heartbeat_decay=decay, error_threshold=threshold
            )
            watchdog = Watchdog(
                grid,
                policy=LifecyclePolicy(
                    suspect_polls=1, probing=True, readmit_clean_probes=1
                ),
            )
            apply_ops(grid, watchdog, ops)
            states.append(GridState.from_grid(grid, watchdog))
        assert states[0] == states[1], "\n".join(
            states[0].diff(states[1])[:10]
        )

    @settings(deadline=None, max_examples=30)
    @given(
        quiet=st.integers(min_value=0, max_value=500),
        polls=st.integers(min_value=0, max_value=50),
    )
    def test_pure_idle_advance(self, quiet, polls):
        """N idle ticks + M polls leave oracle and grid bit-identical."""
        states = []
        for grid_cls in (DenseGrid, NanoBoxGrid):
            grid = grid_cls(3, 5, heartbeat_decay=0.5, error_threshold=2)
            watchdog = Watchdog(grid)
            for _ in range(quiet):
                grid.step()
            for _ in range(polls):
                watchdog.poll()
            states.append(GridState.from_grid(grid, watchdog))
        assert states[0] == states[1]


class TestBeatCrediting:
    @settings(deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=1000),
        decay=st.floats(min_value=0.0, max_value=2.0),
        threshold=st.integers(min_value=0, max_value=8),
    )
    def test_credit_equals_n_beats_when_quiescent(
        self, n, decay, threshold
    ):
        """A quiescent heartbeat credited N beats == N live beat() calls."""
        lively = Heartbeat(error_threshold=threshold, decay=decay)
        credited = Heartbeat(error_threshold=threshold, decay=decay)
        assert lively.quiescent() and credited.quiescent()
        for _ in range(n):
            lively.beat()
        credited.credit_beats(n)
        assert lively.beats_emitted == credited.beats_emitted == n
        assert lively.error_score == credited.error_score
        assert lively.healthy == credited.healthy

    @settings(deadline=None)
    @given(
        errors=st.integers(min_value=1, max_value=6),
        n=st.integers(min_value=1, max_value=50),
    )
    def test_score_decay_breaks_quiescence(self, errors, n):
        """A decaying score is live work -- never bulk-creditable."""
        hb = Heartbeat(error_threshold=errors + 1, decay=0.5)
        hb.record_error(errors)
        assert hb.healthy and not hb.quiescent()
        while not hb.quiescent():
            hb.beat()
        before = hb.beats_emitted
        hb.credit_beats(n)
        assert hb.beats_emitted == before + n
        assert hb.quiescent()


PROCESS = TemporalFaultProcess.transient(0.001, errors_per_cycle=3)
SOAK = dict(
    ticks=120,
    process=PROCESS,
    wave_period=30,
    error_threshold=2,
    probe_interval=32,
)


#: The provider fixture is set up once per test, not per example; that
#: is the intent (one provider state per run of examples).
PER_PROVIDER = [HealthCheck.function_scoped_fixture]


class TestShardMerge:
    """Shard folding, with the native tape scan live and dead."""

    @pytest.mark.usefixtures("kernel_provider")
    @settings(
        deadline=None, max_examples=10, suppress_health_check=PER_PROVIDER
    )
    @given(perm=st.permutations(list(range(4))))
    def test_outcome_merge_permutation_invariant(self, perm):
        shards = shard_fleet(8, 8, 4, seed=5)
        outcomes = [run_fleet_region(s, **SOAK) for s in shards]
        base = merge_outcomes(8, 8, outcomes)
        shuffled = merge_outcomes(8, 8, [outcomes[i] for i in perm])
        assert shuffled == base

    @settings(deadline=None, max_examples=10)
    @given(perm=st.permutations(list(range(5))))
    def test_counter_snapshot_merge_permutation_invariant(self, perm):
        """merge_snapshot over counter snapshots commutes (integer adds)."""
        snaps = []
        for i in range(5):
            reg = MetricsRegistry()
            reg.counter("fleet.quarantines").inc(3 * i + 1)
            reg.counter("fleet.fault_events").inc(i)
            reg.counter(f"fleet.region{i}").inc()
            snaps.append(reg.snapshot())
        base = MetricsRegistry()
        for snap in snaps:
            base.merge_snapshot(snap)
        shuffled = MetricsRegistry()
        for i in perm:
            shuffled.merge_snapshot(snaps[i])
        assert (
            base.snapshot()["counters"] == shuffled.snapshot()["counters"]
        )

    @pytest.mark.usefixtures("kernel_provider")
    @settings(
        deadline=None, max_examples=8, suppress_health_check=PER_PROVIDER
    )
    @given(regions=st.integers(min_value=1, max_value=6))
    def test_sharded_equals_unsharded_totals(self, regions):
        """Any region count folds to the same totals as the serial fold."""
        reference = run_fleet_soak(
            6, 12, regions=regions, jobs=1, seed=9, **SOAK
        )
        shards = shard_fleet(6, 12, regions, seed=9)
        refold = merge_outcomes(
            6, 12, [run_fleet_region(s, **SOAK) for s in shards]
        )
        assert reference == refold
        assert reference.cells == 6 * 12

    @pytest.mark.usefixtures("kernel_provider")
    def test_region_outcome_engine_independent(self):
        """Each region outcome is identical on the grid and the oracle."""
        for shard in shard_fleet(6, 9, 3, seed=2):
            outcome = run_fleet_region(shard, **SOAK)
            with dense_engine():
                oracle = run_fleet_region(shard, **SOAK)
            assert outcome == oracle

    @settings(deadline=None)
    @given(
        fields=st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=10,
            max_size=10,
        )
    )
    def test_outcome_json_round_trip(self, fields):
        outcome = RegionOutcome(*fields)
        payload = encode_outcome(outcome)
        assert decode_outcome(payload) == outcome
        import json

        assert decode_outcome(json.loads(json.dumps(payload))) == outcome
