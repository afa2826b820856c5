"""Cost of crash-safety: checkpoint store and resilient runner overhead.

Three measurements with correctness assertions riding along:

* raw :class:`~repro.perf.checkpoint.CheckpointStore` save+load
  round-trip throughput (the fsync-bound floor of the durability layer);
* a cold resilient figure sweep (computes and checkpoints every chunk)
  versus the identical plain sweep -- checkpointing must not perturb the
  results;
* a warm resume of the same sweep (every chunk served from disk), which
  must also be value-identical to the plain sweep.

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job) to shrink the sweep
while keeping every identity assertion.
"""

import os

from repro.experiments.figures import run_figure, run_figure_resilient
from repro.perf import ResilientRuntime
from repro.perf.checkpoint import CheckpointStore

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Figure-sweep shape for the resilient-runtime measurements.
PERCENTS = (0, 1, 9) if SMOKE else (0, 0.5, 1, 3, 9, 30, 75)
TRIALS = 1 if SMOKE else 2
CHUNKS_PAYLOADS = 16 if SMOKE else 128


def _plain_sweep():
    return run_figure(
        "figure7", fault_percents=PERCENTS, trials_per_workload=TRIALS,
        seed=2004,
    )


def _resilient_sweep(tmp_path, resume):
    return run_figure_resilient(
        "figure7",
        ResilientRuntime(checkpoint_dir=tmp_path / "ck", resume=resume),
        fault_percents=PERCENTS,
        trials_per_workload=TRIALS,
        seed=2004,
    )


def test_bench_checkpoint_save_load_roundtrip(tmp_path):
    payloads = [
        [{"total": i, "correct": i, "injected_faults": i * 3}] * 4
        for i in range(CHUNKS_PAYLOADS)
    ]

    def save_and_load():
        store = CheckpointStore(tmp_path / "roundtrip", "bench0001")
        for index, payload in enumerate(payloads):
            store.save(index, payload)
        loaded = [store.load(index)[0] for index in range(len(payloads))]
        return store, loaded

    store, loaded = save_and_load()
    assert loaded == payloads
    assert store.stats.hits == CHUNKS_PAYLOADS
    assert store.stats.corruptions == 0


def test_bench_resilient_sweep_cold(tmp_path):
    plain = _plain_sweep()
    run = _resilient_sweep(tmp_path, resume=False)
    # Checkpointing must never perturb the numbers.
    assert run.figure is not None
    assert run.figure.to_text() == plain.to_text()
    assert run.outcome.computed_chunks == run.outcome.chunks


def test_bench_resilient_sweep_resume(tmp_path):
    plain = _plain_sweep()
    _resilient_sweep(tmp_path, resume=False)  # populate the store
    run = _resilient_sweep(tmp_path, resume=True)
    assert run.figure is not None
    assert run.figure.to_text() == plain.to_text()
    assert run.outcome.reused_chunks == run.outcome.chunks
    assert run.outcome.computed_chunks == 0
