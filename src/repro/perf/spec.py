"""Picklable build recipes for campaign work items.

A :class:`~repro.perf.executor.CampaignWorkItem` crosses a process
boundary, but the compute units themselves (LUT object graphs, gate
netlists) and the mask policies are heavyweight and not worth pickling.
Instead a work item carries two small frozen *specs* -- an
:class:`~repro.alu.variants.ALUSpec` (re-exported here) and a
:class:`PolicySpec` -- and each worker process rebuilds the real objects
from them.  Construction is deterministic, so a spec builds the same
unit in every process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alu.variants import ALUSpec
from repro.faults.mask import (
    BernoulliMask,
    BurstMask,
    ExactFractionMask,
    FixedCountMask,
    MaskPolicy,
)

__all__ = ["ALUSpec", "PolicySpec"]

_POLICY_KINDS = ("exact", "bernoulli", "burst", "fixed")


@dataclass(frozen=True)
class PolicySpec:
    """Recipe for one mask policy.

    ``value`` is the fraction/probability for the stochastic kinds and
    the (integral) site count for ``"fixed"``.
    """

    kind: str
    value: float
    burst_length: int = 4

    def __post_init__(self) -> None:
        if self.kind not in _POLICY_KINDS:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; valid: {_POLICY_KINDS}"
            )

    @classmethod
    def exact(cls, fraction: float) -> "PolicySpec":
        """The paper's exact-fraction injection semantics."""
        return cls(kind="exact", value=fraction)

    @classmethod
    def bernoulli(cls, probability: float) -> "PolicySpec":
        """Independent per-site flips."""
        return cls(kind="bernoulli", value=probability)

    def build(self) -> MaskPolicy:
        if self.kind == "exact":
            return ExactFractionMask(self.value)
        if self.kind == "bernoulli":
            return BernoulliMask(self.value)
        if self.kind == "burst":
            return BurstMask(self.value, burst_length=self.burst_length)
        return FixedCountMask(int(self.value))
