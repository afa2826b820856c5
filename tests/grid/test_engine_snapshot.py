"""Golden pin of ``GridState.to_snapshot()`` for the grid and its oracle.

The snapshot schema is the currency of the whole differential suite: a
silent format change (renamed key, re-ordered tuple, dropped counter)
would let the event-driven grid and the dense oracle drift apart while
their snapshots kept comparing "equal".  This pin freezes the *exact*
literal snapshot of one small deterministic scenario -- a 2x2 grid, a
mid-run kill, a salvage, a dropped-and-resubmitted instruction wave --
and requires both to reproduce it verbatim.  If a legitimate schema change lands,
update the literal here deliberately, in the same commit.
"""

from contextlib import nullcontext

from repro.grid import GridState, GridSimulator
from tests.grid.dense_oracle import dense_engine

#: The scenario under pin: addition job with a mid-run kill of (1, 1).
SCENARIO = dict(
    rows=2,
    cols=2,
    n_words=4,
    heartbeat_decay=0.5,
    error_threshold=2,
    kill_schedule={6: [(1, 1)]},
    seed=42,
)
INSTRUCTIONS = [(i, 0b001, i + 1, 2 * i + 1) for i in range(6)]

#: Every instruction completes: the three dropped by the kill are
#: resubmitted and delivered in round two.
EXPECTED_RESULTS = {0: 1, 1: 3, 2: 7, 3: 7, 4: 13, 5: 15}

_HEALTHY = {
    "alive": True,
    "forced_silent": False,
    "errors": 0,
    "score": 0.0,
    "beats": 98,
    "computed": 0,
    "disagreements": 0,
    "rejected": 0,
    "words": (0, 0, 0, 0),
}

GOLDEN_SNAPSHOT = {
    "grid": (2, 2),
    "cycle": 98,
    "mode": "shift_out",
    "cells": {
        (0, 0): {**_HEALTHY, "computed": 4},
        (0, 1): dict(_HEALTHY),
        (1, 0): {**_HEALTHY, "computed": 2},
        (1, 1): {
            **_HEALTHY,
            "alive": False,
            "forced_silent": True,
            "beats": 5,
        },
    },
    "counters": {
        "misroutes": 0,
        "invalid_routes": 0,
        "corrupt_rejects": 0,
        "cp_corrupt_rejects": 0,
        "link_dropped": 0,
        "dropped_packets": [
            ("instruction", 1),
            ("instruction", 3),
            ("instruction", 5),
        ],
        "cp_inbox": [],
    },
    "watchdog": {
        "states": {(1, 1): "retired"},
        "disabled": ((1, 1),),
        "quarantines": 1,
        "readmissions": 0,
        "salvages": [((1, 1), 6, 0, 0)],
        "probes": 0,
    },
}


def run_scenario(engine=nullcontext):
    with engine():
        sim = GridSimulator(**SCENARIO)
    job = sim.run_instructions(INSTRUCTIONS, max_rounds=2)
    return GridState.from_grid(sim.grid, sim.watchdog), job


class TestGoldenSnapshot:
    def test_dense_oracle_matches_golden(self):
        state, job = run_scenario(dense_engine)
        assert state.to_snapshot() == GOLDEN_SNAPSHOT
        assert job.results == EXPECTED_RESULTS

    def test_grid_matches_golden(self):
        state, job = run_scenario()
        assert state.to_snapshot() == GOLDEN_SNAPSHOT
        assert job.results == EXPECTED_RESULTS

    def test_snapshot_round_trips_through_gridstate(self):
        state, _ = run_scenario()
        clone = GridState(state.to_snapshot())
        assert clone == state
        assert clone.to_snapshot() == GOLDEN_SNAPSHOT
        assert not state.diff(clone)

    def test_repr_embeds_snapshot(self):
        """repr() is the debugging surface -- it must show the snapshot."""
        state, _ = run_scenario()
        assert repr(state) == f"GridState({state.to_snapshot()!r})"

    def test_diff_pinpoints_divergence(self):
        state, _ = run_scenario()
        mutated = state.to_snapshot()
        mutated["cells"][(0, 0)] = {
            **mutated["cells"][(0, 0)],
            "computed": 99,
        }
        mutated["cycle"] = 97
        report = GridState(state.to_snapshot()).diff(GridState(mutated))
        assert any("cycle" in line for line in report)
        assert any("computed" in line for line in report)
