"""Per-layer spans recorded from outside the library.

The benchmark must not edit ``src/``, so it measures layers by wrapping
the library's public callables in place for the duration of one traced
pass.  Each wrapper opens a span: it times the call with
``time.perf_counter_ns`` and tallies the call count, total time and self
time (total minus the time of nested spans).  When a root span closes,
the tallies go into integer counters in the current ``repro.obs``
observer's metrics registry.  Integer counters add exactly when the
campaign executor merges a pool worker's registry into the parent's, so
pool workers' spans come home through the executor's existing
observed-chunk protocol.

The span stack is per process: pool workers are forked from the parent
with the wrappers already installed, and a fork hook resets the stack so
a worker never closes the parent's open spans.  A call into a layer that
is already open in this process (``SpaceRedundantALU.compute`` calling
``NanoBoxALU.compute``, say) belongs to the outer span.

The first :data:`EVENT_CAP` spans of each layer in each process also emit a
``<layer>_start``/``<layer>_end`` trace-event pair, which
``TraceLog.to_chrome_trace`` turns into a duration bar.  Hot layers (a
grid cell's per-cycle actions run ~10^5 times per job) would otherwise
overflow the trace ring buffer; their later spans are counted in the
metrics only.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Tuple

from repro.obs import get_observer

#: Layer name -> the public callables that make it up, as
#: ``module:Class.method`` or ``module:function``.  A class entry also
#: covers every subclass in the same package that overrides the method
#: (``SparseGrid.step``, ``ExactFractionMask.generate_batch``, the
#: concrete ALUs' ``compute``).  A function entry also replaces every
#: alias that a ``from module import name`` left in another module.
LAYERS: Mapping[str, Tuple[str, ...]] = {
    "faults.mask.generate_batch": (
        "repro.faults.mask:MaskPolicy.generate_batch",
    ),
    "faults.mask.generate": ("repro.faults.mask:MaskPolicy.generate",),
    "faults.campaign.suite": (
        "repro.faults.campaign:FaultCampaign.run_workload_suite",
    ),
    "kernels.eval": ("repro.kernels.engine:CompiledEngine.bundles_words",),
    "alu.batched.values": ("repro.alu.batched:BatchedEngine.values",),
    "alu.compute": ("repro.alu.base:FaultableUnit.compute",),
    "perf.executor.run": (
        "repro.perf.executor:CampaignExecutor.run_with_stats",
    ),
    "experiments.defect_yield": ("repro.experiments.defect_yield:yield_sweep",),
    "experiments.scaling": (
        "repro.experiments.scaling:detection_latency",
        "repro.experiments.scaling:pipeline_scaling",
    ),
    "experiments.render": (
        "repro.experiments.report:format_series",
        "repro.experiments.report:format_table",
        "repro.experiments.figures:FigureResult.to_text",
    ),
    "grid.simulator.init": ("repro.grid.simulator:GridSimulator.__init__",),
    "grid.control.run_job": ("repro.grid.control:ControlProcessor.run_job",),
    "grid.control.tick": ("repro.grid.control:ControlProcessor.tick",),
    "grid.step": ("repro.grid.grid:NanoBoxGrid.step",),
    "cell.actions": (
        "repro.cell.cell:ProcessorCell.compute_step",
        "repro.cell.cell:ProcessorCell.pop_result",
        "repro.cell.cell:ProcessorCell.store_instruction",
    ),
    "cell.memory": (
        "repro.cell.memory:CellMemory.apply_faults",
        "repro.cell.memory:CellMemory.scrub",
    ),
    "grid.watchdog.poll": ("repro.grid.watchdog:Watchdog.poll",),
    "grid.watchdog.probe": ("repro.grid.watchdog:Watchdog.probe_quarantined",),
    "grid.engine.temporal": ("repro.grid.engine:TemporalScheduler.tick",),
}

#: Trace-event source of every layer span (one track per process).
SPAN_SOURCE = "e2e"

#: Trace-event pairs emitted per layer per process.
EVENT_CAP = 200

#: Counter names for the span accounting that is not per layer.
PARENT_ROOT_NS = "span.parent.root_ns"
WORKER_ROOT_NS = "span.worker.root_ns"


def _counter_names(layer: str) -> Tuple[str, str, str]:
    return (
        f"layer.{layer}.calls",
        f"layer.{layer}.total_ns",
        f"layer.{layer}.self_ns",
    )


def _library_modules() -> list:
    """Loaded modules of the ``repro`` package."""
    return [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


class LayerTracer:
    """Installs the layer wrappers and keeps this process's span stack.

    Use as a context manager around the traced pass, inside an
    ``observing(Observer())`` block::

        with observing(obs), LayerTracer():
            workload.run(seed, 0)

    Args:
        layers: the layer table (default :data:`LAYERS`).
    """

    def __init__(self, layers: Mapping[str, Tuple[str, ...]] = LAYERS) -> None:
        self._layers = layers
        self._names: Dict[str, Tuple[str, str, str]] = {}
        # Per layer [calls, total_ns, self_ns, trace-event pairs emitted],
        # the first three since the last root span closed.  Open spans
        # are [start_ns, nested_ns].  Wrappers hold these lists, so they
        # change only in place; plain ints keep hot layers cheap.
        self._totals: Dict[str, List[int]] = {}
        self._stack: List[List[int]] = []
        self._open: set = set()
        self.role = "parent"
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, object] = {}
        tracer = weakref.ref(self)

        def after_fork() -> None:
            live = tracer()
            if live is not None:
                live._reset_after_fork()

        os.register_at_fork(after_in_child=after_fork)

    # ------------------------------------------------------------ spans

    @property
    def depth(self) -> int:
        """Spans open in this process."""
        return len(self._stack)

    def _reset_after_fork(self) -> None:
        self._stack.clear()
        self._open.clear()
        for totals in self._totals.values():
            totals[:3] = [0, 0, 0]  # the parent's, still to be added there
        self.role = "worker"

    def _flush(self, root_ns: int) -> None:
        """Add the totals since the last root span to the observer.

        A root span closes inside the observer its spans ran under: in a
        pool worker, inside the executor's observed chunk.
        """
        metrics = get_observer().metrics
        for layer, totals in self._totals.items():
            if totals[0]:
                for name, value in zip(self._names[layer], totals):
                    metrics.counter(name).inc(value)
                totals[:3] = [0, 0, 0]
        root = PARENT_ROOT_NS if self.role == "parent" else WORKER_ROOT_NS
        metrics.counter(root).inc(root_ns)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with a span of ``layer`` around every outermost call."""
        self._names.setdefault(layer, _counter_names(layer))
        totals = self._totals.setdefault(layer, [0, 0, 0, 0])
        stack, open_layers, flush = self._stack, self._open, self._flush
        clock = time.perf_counter_ns
        start_event, end_event = f"{layer}_start", f"{layer}_end"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in open_layers:
                return fn(*args, **kwargs)
            emit = totals[3] < EVENT_CAP
            if emit:
                totals[3] += 1
                get_observer().trace.emit(start_event, source=SPAN_SOURCE)
            open_layers.add(layer)
            frame = [clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                open_layers.discard(layer)
                if emit:
                    get_observer().trace.emit(end_event, source=SPAN_SOURCE)
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    flush(duration)

        return wrapper

    # ------------------------------------------------------- patching

    def _patch(self, owner: object, attr: str, layer: str, original) -> None:
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            wrapper = self._wrappers[id(original)] = self.wrap(layer, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_target(self, layer: str, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            for other in [module] + _library_modules():
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attr, layer, original)
            return
        class_name, method = qualname.split(".")
        base = getattr(module, class_name)
        package = module_name.rsplit(".", 1)[0] + "."
        for cls in [base] + _subclasses(base):
            if not cls.__module__.startswith(package):
                continue
            original = cls.__dict__.get(method)
            if callable(original):
                self._patch(cls, method, layer, original)

    def __enter__(self) -> "LayerTracer":
        """Wrap every layer's callables."""
        for layer, targets in self._layers.items():
            for target in targets:
                self._patch_target(layer, target)
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Restore every original, including aliases bound while tracing."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        wrappers = {id(w): w for w in self._wrappers.values()}
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                if wrappers.get(id(value)) is value:
                    setattr(module, attr, value.__wrapped__)
        self._wrappers.clear()


@dataclass(frozen=True)
class LayerStats:
    """One layer's totals from a traced pass."""

    calls: int
    total_s: float
    self_s: float


def layer_stats(counters: Mapping[str, int]) -> Dict[str, LayerStats]:
    """Per-layer totals from a metrics snapshot's ``counters``."""
    out: Dict[str, LayerStats] = {}
    for layer in LAYERS:
        calls, total, self_name = _counter_names(layer)
        out[layer] = LayerStats(
            calls=int(counters.get(calls, 0)),
            total_s=counters.get(total, 0) / 1e9,
            self_s=counters.get(self_name, 0) / 1e9,
        )
    return out


def format_layer_table(
    stats: Mapping[str, LayerStats], wall_s: float, residual_s: float
) -> str:
    """Fixed-width per-layer table with each layer's share of pass wall."""
    lines = [
        f"{'layer':<28} {'calls':>9} {'total_s':>9} {'self_s':>9} {'self%':>6}"
    ]
    for layer, s in stats.items():
        share = 100.0 * s.self_s / wall_s if wall_s else 0.0
        lines.append(
            f"{layer:<28} {s.calls:>9} {s.total_s:>9.4f} "
            f"{s.self_s:>9.4f} {share:>6.1f}"
        )
    share = 100.0 * residual_s / wall_s if wall_s else 0.0
    lines.append(f"{'(residual)':<28} {'':>9} {'':>9} {residual_s:>9.4f} {share:>6.1f}")
    return "\n".join(lines)
