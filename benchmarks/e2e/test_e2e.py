"""Self-tests of the end-to-end benchmark, on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; they are
not part of the tier-1 suite (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import pytest

from benchmarks.e2e import reference
from benchmarks.e2e import run as bench
from benchmarks.e2e.layers import LayerTracer, layer_stats
from benchmarks.e2e.worker import TRACE_LIMIT, measure
from benchmarks.e2e.workloads import Figures, FleetSoak, GridImage, Report
from repro.experiments import figures, report
from repro.faults.campaign import FaultCampaign
from repro.obs import Observer, get_observer, observing

TINY = {
    "figures": Figures(figures=("figure7",), percents=(0, 5), trials=1),
    "report": Report(quick=True),
    "grid-image": GridImage(rows=4, cols=4, image=8, kill_cycle=5),
    "fleet-soak": FleetSoak(
        rows=8, cols=32, ticks=20, regions=2, wave_period=5,
        probe_interval=10,
    ),
}

SPEC = json.loads(bench.BENCHMARK_JSON.read_text())


def test_tiny_workloads_cover_the_declared_ones():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted_with_its_unit(name):
    run = measure(TINY[name], seed=7, seconds=0, trace=True)
    run["setup_s"] = [0.5, 0.4, 0.6]
    assert run["failed"] == 0, run["problems"]
    for declared in (SPEC["end_to_end"], SPEC["per_layer"]):
        metrics = bench.contract_metrics(run, declared)
        assert list(metrics) == [m["name"] for m in declared]
        for spec in declared:
            entry = metrics[spec["name"]]
            assert entry["unit"] == spec["unit"]
            assert isinstance(entry["value"], (int, float))
    if name == "report":
        # Pool workers' spans came home through the executor's merge.
        layers = run["layers"]
        assert layers["perf.executor.worker_busy_s"][0] > 0
        assert layers["faults.campaign.suite.calls"][0] > 0


@dataclass(frozen=True)
class _DroppedResults(GridImage):
    """Loses every delivered result after the job: accounting breaks."""

    def run(self, seed, index):
        output = super().run(seed, index)
        for outcome in output:
            outcome.job.results.clear()
        return output


@dataclass(frozen=True)
class _Raises(GridImage):
    def run(self, seed, index):
        raise RuntimeError("injected failure")


def _tiny_grid(workload_cls):
    return workload_cls(**asdict(TINY["grid-image"]))


@pytest.mark.parametrize("workload_cls", [_DroppedResults, _Raises])
def test_corrupted_output_is_counted_not_fatal(workload_cls):
    run = measure(_tiny_grid(workload_cls), seed=7, seconds=0, trace=True)
    assert run["attempted"] == GridImage.passes + 1  # timed passes + traced
    assert run["failed"] == run["attempted"]
    assert run["problems"]
    # The run still reports every declared metric.
    run["setup_s"] = [0.5]
    bench.contract_metrics(run, SPEC["per_layer"])


def test_self_times_account_for_the_traced_pass():
    obs = Observer()
    with observing(obs), LayerTracer():
        start = time.perf_counter()
        TINY["grid-image"].run(7, 0)
        wall = time.perf_counter() - start
    stats = layer_stats(obs.metrics.snapshot()["counters"])
    assert stats["grid.step"].calls > 0
    residual = wall - sum(s.self_s for s in stats.values())
    assert 0 <= residual <= TRACE_LIMIT * wall
    for s in stats.values():
        assert 0 <= s.self_s <= s.total_s


@dataclass(frozen=True)
class _OutsideLayers(GridImage):
    """Spends most of every pass outside any layer: a large residual."""

    def run(self, seed, index):
        time.sleep(0.2)
        return super().run(seed, index)


@dataclass(frozen=True)
class _SlowWhenTraced(GridImage):
    """Only the traced pass is slow: a large tracing overhead."""

    def run(self, seed, index):
        if get_observer().enabled:
            time.sleep(0.5)
        return super().run(seed, index)


def test_large_residual_fails_the_traced_pass():
    run = measure(_tiny_grid(_OutsideLayers), seed=7, seconds=0, trace=True)
    assert run["failed"] == 1, run["problems"]
    assert any("residual" in p for p in run["problems"]), run["problems"]


def test_large_tracing_overhead_is_a_warning():
    run = measure(_tiny_grid(_SlowWhenTraced), seed=7, seconds=0, trace=True)
    assert any("tracing slowed" in w for w in run["warnings"]), run["warnings"]
    assert not any("tracing slowed" in p for p in run["problems"])


def test_gauge_rescales_wall_to_the_reference_speed(monkeypatch):
    # A CPU at half the reference speed: the loop takes twice as long.
    half_speed_ns = int(2 * reference.REFERENCE_S * 1e9)
    monkeypatch.setattr(reference, "_sample_ns", lambda: half_speed_ns)
    with reference.SpeedGauge() as gauge:
        mark = gauge.mark()
        time.sleep(5 * reference.INTERVAL_S)
        assert gauge.rescale(3.0, mark) == pytest.approx(1.5)
        # An interval with no sample of its own uses the latest one.
        assert gauge.rescale(3.0, gauge.mark()) == pytest.approx(1.5)


def test_tracer_restores_every_original():
    suite = FaultCampaign.__dict__["run_workload_suite"]
    series = report.format_series
    with LayerTracer():
        assert FaultCampaign.__dict__["run_workload_suite"] is not suite
        assert figures.format_series is not series
    assert FaultCampaign.__dict__["run_workload_suite"] is suite
    assert figures.format_series is series
    assert report.format_series is series


def _exit_with_span_state(tracer):
    sys.exit(0 if tracer.depth == 0 and tracer.role == "worker" else 1)


def test_span_stack_resets_in_forked_worker():
    tracer = LayerTracer(layers={})
    context = multiprocessing.get_context("fork")

    def fork_inside_span():
        assert tracer.depth == 1
        child = context.Process(target=_exit_with_span_state, args=(tracer,))
        child.start()
        child.join(timeout=60)
        assert not child.is_alive()
        return child.exitcode

    with observing(Observer()):
        assert tracer.wrap("outer", fork_inside_span)() == 0
    assert tracer.depth == 0
    assert tracer.role == "parent"


def test_fails_without_the_library(tmp_path):
    shutil.copy(bench.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        bench.ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
