"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`repro.experiments.tables` -- Table 1 (ISA) and Table 2 (ALU
  variants and fault-site counts);
* :mod:`repro.experiments.figures` -- Figures 7, 8, 9 (percent-correct
  versus injected fault percentage, grouped by module-level technique);
* :mod:`repro.experiments.fit_table` -- the Section 4/5 FIT-rate
  translations and headline reliability claims;
* :mod:`repro.experiments.area` -- the ~9x area-overhead claim;
* :mod:`repro.experiments.ablations` -- design-choice studies beyond the
  paper (decoder semantics, redundancy order, voter coding, mask policy);
* :mod:`repro.experiments.chaos_fabric` -- link-fault chaos sweeps of the
  CRC + retransmit transport (the fabric analogue of Figures 7-9);
* :mod:`repro.experiments.lifecycle` -- self-healing study: temporal
  fault processes x cell-health lifecycle policies, goodput and
  availability of quarantine + re-admission versus permanent disable;
* :mod:`repro.experiments.run_all` -- regenerate everything and emit the
  EXPERIMENTS.md comparison tables.
"""

import importlib
from typing import List

#: Every public name and the submodule it comes from.  The names load on
#: first access (PEP 562), so rendering Table 1 pulls in no ALU, fault or
#: grid code.
_EXPORTS = {
    "repro.experiments.figures": (
        "PAPER_FAULT_PERCENTAGES", "FigureResult", "SeriesPoint", "figure7",
        "figure8", "figure9", "run_figure", "sweep_variant",
    ),
    "repro.experiments.tables": ("table1_text", "table2_rows", "table2_text"),
    "repro.experiments.fit_table": (
        "fit_rows", "fit_table_text", "headline_claims",
    ),
    "repro.experiments.area": ("area_rows", "area_table_text"),
    "repro.experiments.report": ("format_series", "format_table"),
    "repro.experiments.ascii_chart": ("ascii_chart", "figure_chart"),
    "repro.experiments.defect_yield": (
        "yield_at", "yield_sweep", "yield_table_text",
    ),
    "repro.experiments.export": (
        "figure_from_json", "figure_to_csv", "figure_to_json",
        "records_to_csv", "records_to_json",
    ),
    "repro.experiments.scaling": (
        "detection_latency", "detection_table_text", "pipeline_scaling",
        "pipeline_table_text",
    ),
    "repro.experiments.chaos_fabric": (
        "ChaosPoint", "chaos_sweep", "chaos_table_text", "run_chaos_point",
    ),
    "repro.experiments.lifecycle": (
        "LifecyclePoint", "PolicyConfig", "lifecycle_sweep",
        "lifecycle_table_text", "permanent_policy", "run_lifecycle_point",
        "self_healing_policy",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str) -> object:
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.experiments' has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_SOURCE))


__all__ = sorted(_SOURCE)
