"""Job model: what the service runs, keyed the way checkpoints are.

A :class:`JobSpec` is a *validated, whitelisted* description of one
CLI-equivalent run -- kind (``sweep``/``grid``/``chaos``/``lifecycle``)
plus parameters.  The whitelist matters: the HTTP boundary must never
let a client smuggle arbitrary argv into a child process.  Every
parameter's flag, type, value domain and dependencies come from the
one declaration the CLI builds its parser from,
:data:`repro.cli.COMMANDS`; :data:`SERVICE_PARAMS` only names which of
them the service exposes and its own caps on resource size.  Anything
else is a validation error (HTTP 400), not a shell opportunity.

The **cache key** is the canonical :func:`repro.obs.provenance.
config_hash` of ``{"service-job": kind, "argv": spec.to_argv()}`` --
the same provenance discipline PR 5 gave artifacts and PR 6 gave
checkpoint run keys.  Because the argv is derived in a fixed parameter
order with defaults elided, two requests that mean the same run hash
identically regardless of JSON key order or explicit-vs-default
booleans, which is what makes result caching and single-flight
deduplication collapse them.  A float lowers to a string that parses
back to the same float, so two requests that differ in any digit never
share a key, and the child runs the value the journal records.

Resilience flags (checkpoint dir, resume, deadline) are deliberately
*not* part of the spec or its key: they change how a run executes, not
what it computes, exactly as the PR 7 backend seam is excluded from
checkpoint run keys.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.cli import Param, command_params, unmet_requirement
from repro.obs.provenance import config_hash

__all__ = [
    "JOB_KINDS",
    "SERVICE_PARAMS",
    "JobRecord",
    "JobSpec",
    "JobState",
    "job_cache_key",
]

#: ``kind -> parameter -> cap``: the CLI parameters each job kind
#: exposes, in the fixed order the canonical argv is assembled, with the
#: service's own upper bound on resource size (None: the CLI's domain is
#: the whole check).  A list parameter's cap bounds each item.
SERVICE_PARAMS: Dict[str, Dict[str, Optional[int]]] = {
    "sweep": {
        "figure": None, "quick": None, "trials": 100, "seed": None,
        "jobs": 64, "backend": None,
    },
    "grid": {
        "rows": 64, "cols": 64, "scheme": None, "workload": None,
        "image_size": 64, "fault_percent": None, "kill": None,
        "adaptive": None, "rounds": 100, "seed": None, "backend": None,
    },
    "chaos": {
        "rates": None, "rounds": 16, "drop_rate": None, "stall_rate": None,
        "rows": 64, "cols": 64, "instructions": 10000, "seed": None,
        "backend": None,
    },
    "lifecycle": {
        "processes": None, "rate": None, "burst_length": 1000,
        "decay": None, "jobs": 64, "instructions": 10000, "rows": 64,
        "cols": 64, "seed": None, "backend": None,
    },
}

#: Job kinds the service accepts, in documentation order.  Each is the
#: CLI subcommand of the same name (all four are crash-safe: they
#: accept ``--checkpoint-dir/--resume/--deadline``).
JOB_KINDS = tuple(SERVICE_PARAMS)

#: Most values one list parameter may carry.
MAX_LIST_ITEMS = 32

#: The JSON types a request may use for a flag by the type of the value
#: the flag parses to (anything not numeric is sent as a string).
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a number")}


def _validated(param: Param, raw: Any, cap: Optional[int]) -> Any:
    """One request value, checked against its flag and the service cap."""
    if param.action == "store_true":
        if not isinstance(raw, bool):
            raise ValueError(f"expected a boolean, got {raw!r}")
        return raw
    if param.nargs is None and param.action is None:
        return _validated_item(param, raw, cap)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ValueError(f"expected a non-empty list, got {raw!r}")
    if len(raw) > MAX_LIST_ITEMS:
        raise ValueError(f"at most {MAX_LIST_ITEMS} items, got {len(raw)}")
    return tuple(_validated_item(param, item, cap) for item in raw)


def _validated_item(param: Param, raw: Any, cap: Optional[int]) -> Any:
    """One scalar value: the flag's own type parses its argv form, so
    the service admits exactly what the child's parser will."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ValueError(f"expected a single value, got {raw!r}")
    try:
        value = (param.type or str)(_argv_str(raw))
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise ValueError(str(exc)) from None
    accepted, noun = _JSON_TYPES.get(type(value), (str, "a string"))
    if not isinstance(raw, accepted):
        raise ValueError(f"expected {noun}, got {raw!r}")
    if param.choices is not None and value not in param.choices:
        choices = ", ".join(repr(choice) for choice in param.choices)
        raise ValueError(f"invalid choice: {raw!r} (choose from {choices})")
    if cap is not None and value > cap:
        raise ValueError(f"must be <= {cap}, got {raw}")
    return float(raw) if isinstance(value, float) else raw


@dataclass(frozen=True)
class JobSpec:
    """One validated, cache-keyable job description.

    Build through :meth:`from_request` at the HTTP boundary (raises
    ``ValueError`` with a client-presentable message on anything off
    the whitelist); construct directly only from trusted code.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def from_request(
        cls, kind: Any, params: Optional[Mapping[str, Any]] = None
    ) -> "JobSpec":
        if kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {kind!r}; valid kinds: {list(JOB_KINDS)}"
            )
        exposed = SERVICE_PARAMS[kind]
        flags = command_params(kind)
        params = dict(params or {})
        unknown = sorted(set(params) - set(exposed))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) for {kind!r}: {unknown}; "
                f"allowed: {sorted(exposed)}"
            )
        normalized: List[Tuple[str, Any]] = []
        for name, cap in exposed.items():  # fixed order => canonical argv
            if name not in params:
                continue
            try:
                value = _validated(flags[name], params[name], cap)
            except ValueError as exc:
                raise ValueError(f"parameter {name!r}: {exc}") from None
            if value is not False:  # an absent boolean flag, canonically
                normalized.append((name, value))
        error = unmet_requirement(kind, (name for name, _ in normalized))
        if error:
            raise ValueError(error)
        return cls(kind=kind, params=tuple(normalized))

    def param_dict(self) -> Dict[str, Any]:
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in self.params
        }

    def to_argv(self) -> List[str]:
        """The exact child CLI argv this spec lowers to (canonical)."""
        argv: List[str] = [self.kind]
        flags = command_params(self.kind)
        for name, value in self.params:
            param = flags[name]
            if value is True:
                argv.append(param.flag)
            elif param.action == "append":  # the flag repeats per item
                for item in value:
                    argv.extend((param.flag, _argv_str(item)))
            elif isinstance(value, tuple):
                argv.append(param.flag)
                argv.extend(_argv_str(item) for item in value)
            else:
                argv.extend((param.flag, _argv_str(value)))
        return argv

    @property
    def cache_key(self) -> str:
        return job_cache_key(self)

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.param_dict()}

    @classmethod
    def from_json(cls, document: Mapping[str, Any]) -> "JobSpec":
        return cls.from_request(
            document.get("kind"), document.get("params") or {}
        )


def _argv_str(value: Any) -> str:
    """Canonical string form of one argv value.  A float takes its short
    ``:g`` form when that parses back to the same float, else its
    ``repr`` (the shortest string that does), so the child runs exactly
    the requested value and distinct values never share a cache key."""
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


def job_cache_key(spec: JobSpec) -> str:
    """Content address of a job's result: canonical config hash.

    Derived from the canonical argv, so any two requests that lower to
    the same child command share one key -- the property the result
    cache, single-flight dedup, and checkpoint-directory sharing all
    rely on.
    """
    return config_hash({"service-job": spec.kind, "argv": spec.to_argv()})


class JobState:
    """The job lifecycle (string constants; journaled verbatim)::

        QUEUED ──► RUNNING ──► DONE       (artifact cached)
           │          │  ├───► PARTIAL    (deadline; artifact job-local)
           │          │  ├───► FAILED     (failed exit / deaths exhausted)
           │          │  └───► QUEUED     (drain: requeued)
           └──────────┴──────► CANCELLED
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    PARTIAL = "partial"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job never leaves.
    TERMINAL = (DONE, PARTIAL, FAILED, CANCELLED)

    #: States the startup recovery scan re-enqueues.
    RESUMABLE = (QUEUED, RUNNING)


@dataclass
class JobRecord:
    """One job's full service-side history (journaled on every change).

    Timestamps are wall-clock (``time.time``) because they must stay
    meaningful across a server restart; everything latency-sensitive
    uses the manager's injected monotonic clock instead.
    """

    id: str
    spec: JobSpec
    cache_key: str
    state: str = JobState.QUEUED
    outcome: str = "fresh"  # "fresh" | "cached" | "resumed"
    attempts: int = 0
    deadline: Optional[float] = None
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    exit_status: Optional[int] = None
    error: Optional[str] = None
    result_bytes: Optional[int] = None
    result_sha256: Optional[str] = None
    incomplete: bool = False
    requeues: int = 0
    stderr_tail: str = ""

    def to_json(self) -> Dict[str, Any]:
        document = {
            "schema": "repro.service.job",
            "schema_version": 1,
            "id": self.id,
            "spec": self.spec.to_json(),
            "cache_key": self.cache_key,
            "state": self.state,
            "outcome": self.outcome,
            "attempts": self.attempts,
            "deadline": self.deadline,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "exit_status": self.exit_status,
            "error": self.error,
            "result_bytes": self.result_bytes,
            "result_sha256": self.result_sha256,
            "incomplete": self.incomplete,
            "requeues": self.requeues,
            "stderr_tail": self.stderr_tail,
        }
        return document

    @classmethod
    def from_json(
        cls, document: Mapping[str, Any], spec: Optional[JobSpec] = None
    ) -> "JobRecord":
        """Load a journaled record; ``spec`` replaces the validated
        spec (recovery passes the raw one when validation fails)."""
        if spec is None:
            spec = JobSpec.from_json(document["spec"])
        record = cls(
            id=str(document["id"]),
            spec=spec,
            cache_key=str(document.get("cache_key") or spec.cache_key),
        )
        for name in (
            "state", "outcome", "attempts", "deadline", "submitted_at",
            "started_at", "finished_at", "exit_status", "error",
            "result_bytes", "result_sha256", "incomplete", "requeues",
            "stderr_tail",
        ):
            if name in document:
                setattr(record, name, document[name])
        return record
