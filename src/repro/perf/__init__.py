"""Parallel campaign execution.

Fault-injection campaigns are embarrassingly parallel across (variant,
fault percentage) cells: each cell is an independent Monte Carlo suite
with its own seed-derived streams.  This package turns a sweep into a
list of picklable :class:`~repro.perf.executor.CampaignWorkItem`\\ s and
fans them out over a process pool with a deterministic merge order, so a
parallel run's report is byte-identical to a serial one.
"""

from repro.perf.checkpoint import CheckpointStats, CheckpointStore
from repro.perf.executor import (
    CampaignExecutionError,
    CampaignExecutor,
    CampaignWorkItem,
    ExecutorStats,
    run_campaign_items,
)
from repro.perf.resilient import (
    DeadLetter,
    ResilientOutcome,
    ResilientRunner,
    ResilientRuntime,
    resilience_note,
    resilient_campaign_map,
)
from repro.perf.spec import ALUSpec, PolicySpec

__all__ = [
    "ALUSpec",
    "CampaignExecutionError",
    "CampaignExecutor",
    "CampaignWorkItem",
    "CheckpointStats",
    "CheckpointStore",
    "DeadLetter",
    "ExecutorStats",
    "PolicySpec",
    "ResilientOutcome",
    "ResilientRunner",
    "ResilientRuntime",
    "resilience_note",
    "resilient_campaign_map",
    "run_campaign_items",
]
