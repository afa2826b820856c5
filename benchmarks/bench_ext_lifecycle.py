"""Extension: self-healing lifecycle versus permanent disable.

The paper's watchdog (Section 2.3) disables a silent cell forever.  That
is the right call for a permanent defect but throws away capacity when
the underlying fault process is transient or intermittent -- the common
case for nanoscale devices.  This bench sweeps the temporal fault
taxonomy (:mod:`repro.faults.temporal`) against the two lifecycle
policies and asserts the headline claims of the extension:

* under an intermittent-burst process at the same injected-fault rate,
  quarantine + canary re-admission achieves *strictly* higher goodput
  (correct results per kilocycle) than permanent disable;
* under a permanent stuck-at process, the self-healing policy is no
  worse -- failed probe rounds retire the cell just as the baseline
  would have;
* the whole sweep is deterministic for a fixed seed: running it twice
  yields identical points, table text included.
"""

from benchmarks.conftest import scaled
from repro.experiments.lifecycle import (
    default_processes,
    lifecycle_sweep,
    lifecycle_table_text,
    permanent_policy,
    self_healing_policy,
)
from repro.faults.temporal import FaultKind

JOBS = scaled(4, 2)
N_INSTRUCTIONS = scaled(64, 48)
SEED = 2004


def run_sweep():
    return lifecycle_sweep(
        jobs=JOBS,
        n_instructions=N_INSTRUCTIONS,
        seed=SEED,
    )


def test_bench_lifecycle_sweep():
    points = run_sweep()
    print()
    print(lifecycle_table_text(points))

    by_key = {(p.process, p.policy) for p in points}
    assert len(by_key) == len(points), "sweep points must be unique"
    lookup = {(p.process, p.policy): p for p in points}

    processes = {proc.kind: proc.describe() for proc in default_processes()}

    # Re-admission pays under intermittent bursts: the same fault
    # history, strictly more correct results per kilocycle.
    intermittent = processes[FaultKind.INTERMITTENT]
    healing = lookup[(intermittent, "self-healing")]
    baseline = lookup[(intermittent, "permanent")]
    assert healing.goodput > baseline.goodput
    assert healing.readmissions > 0

    # ...and costs nothing under genuine permanent defects: probes keep
    # failing, the cell retires, goodput matches the baseline.
    permanent = processes[FaultKind.PERMANENT]
    healing_perm = lookup[(permanent, "self-healing")]
    baseline_perm = lookup[(permanent, "permanent")]
    assert healing_perm.goodput >= baseline_perm.goodput

    # Transient glitches should not cost the self-healing fabric any
    # cells at all: the leaky bucket absorbs isolated upsets.
    transient = processes[FaultKind.TRANSIENT]
    healing_tr = lookup[(transient, "self-healing")]
    assert healing_tr.retired == 0


def test_bench_lifecycle_deterministic():
    first = run_sweep()
    second = run_sweep()
    assert first == second
    assert lifecycle_table_text(first) == lifecycle_table_text(second)


def test_bench_lifecycle_legacy_equivalence():
    """decay=0 + probing off must reproduce the paper baseline exactly.

    The permanent PolicyConfig *is* the legacy configuration; spelling
    it out two ways (factory versus hand-rolled defaults) must yield
    identical measurements.
    """
    from repro.experiments.lifecycle import PolicyConfig
    from repro.grid.watchdog import LifecyclePolicy

    explicit = PolicyConfig(
        name="permanent",
        heartbeat_decay=0.0,
        policy=LifecyclePolicy(
            suspect_polls=0,
            probing=False,
        ),
    )
    points_factory = lifecycle_sweep(
        policies=(permanent_policy(),),
        jobs=2,
        n_instructions=48,
        seed=SEED,
    )
    points_explicit = lifecycle_sweep(
        policies=(explicit,),
        jobs=2,
        n_instructions=48,
        seed=SEED,
    )
    assert points_factory == points_explicit
