"""repro: the Recursive NanoBox Processor Grid, in Python.

A full reproduction of *"The Recursive NanoBox Processor Grid: A Reliable
System Architecture for Unreliable Nanotechnology Devices"* (KleinOsowski
et al., DSN 2004): error-coded lookup-table logic, the twelve Table 2 ALU
variants, module-level time/space redundancy with fault-prone voters, the
processor cell (memory, ALU control, router, heartbeat), the full
processor grid with its control processor and watchdog failover, the
Monte Carlo fault-injection methodology, and the harnesses that regenerate
every table and figure of the paper's evaluation.

Quickstart::

    from repro import build_alu, FaultCampaign, ExactFractionMask
    from repro.workloads import gradient, paper_workloads

    alu = build_alu("aluss")                     # TMR LUTs x space redundancy
    campaign = FaultCampaign(alu, ExactFractionMask(0.03), seed=0)
    result = campaign.run_workload_suite(paper_workloads(gradient()), 5)
    print(f"{result.percent_correct:.1f}% correct at 3% injected faults")
"""

import importlib
from typing import List

__version__ = "1.0.0"

#: Every public name and the module it comes from.  The names load on
#: first access (PEP 562), so ``import repro.obs`` or ``import repro.cli``
#: pulls in no ALU, fault or grid code.
_EXPORTS = {
    "repro.alu": (
        "ALUResult",
        "CMOSALU",
        "FaultableUnit",
        "NanoBoxALU",
        "Opcode",
        "ReferenceALU",
        "SimplexALU",
        "SpaceRedundantALU",
        "TABLE2_SITE_COUNTS",
        "TimeRedundantALU",
        "build_alu",
        "reference_compute",
        "variant_names",
        "variant_spec",
    ),
    "repro.coding": (
        "HammingCode", "IdentityCode", "ParityCode", "RepetitionCode",
    ),
    "repro.core": ("describe_unit", "render_tree", "ErrorLedger"),
    "repro.faults": (
        "BernoulliMask",
        "ExactFractionMask",
        "FaultCampaign",
        "FixedCountMask",
        "SiteSpace",
        "fit_for_fault_fraction",
        "fit_for_faults_per_cycle",
    ),
    "repro.grid": ("ControlProcessor", "GridSimulator", "NanoBoxGrid", "Watchdog"),
    "repro.lut": ("CodedLUT", "TruthTable"),
    "repro.obs": ("Observer", "get_observer", "observing", "report_metrics"),
    "repro.workloads": ("Bitmap", "hue_shift", "paper_workloads", "reverse_video"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str) -> object:
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_SOURCE))


__all__ = sorted(_SOURCE) + ["__version__"]
