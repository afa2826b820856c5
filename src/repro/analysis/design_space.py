"""Design-space helpers built on the closed-form reliability models.

Answers the questions a NanoBox adopter would ask next:

* *What injected-fault rate (and hence raw FIT rate) can a configuration
  tolerate while staying above a target accuracy?* --
  :func:`fault_budget` / :func:`fit_budget`;
* *Is the area worth it?* -- :func:`accuracy_per_overhead` and the
  trade-off table;
* *When does N-modular redundancy stop paying?* --
  :func:`nmr_breakeven_probability` (the classic p = 1/2 crossover) and
  :func:`marginal_order_gain`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.alu.nanobox import NanoBoxALU
from repro.analysis.models import (
    majority_error_prob,
    predicted_percent_correct,
)
from repro.faults.fit import fit_for_fault_fraction

#: The bit-level schemes the closed-form models cover, in report order.
MODELLED_SCHEMES: Tuple[str, ...] = ("none", "hamming", "tmr", "5mr", "7mr")


def _scheme_sites(scheme: str) -> int:
    """Sites of one NanoBox core under ``scheme``, used to translate
    fault fractions into FIT rates and area overheads."""
    return NanoBoxALU(scheme=scheme).site_count


def fault_budget(
    scheme: str,
    target_percent: float,
    tolerance: float = 1e-6,
) -> float:
    """Largest per-site fault probability meeting a target accuracy.

    Bisects the (monotone decreasing) closed-form percent-correct curve.
    Returns 0.0 when even fault-free operation misses the target and
    0.5 when the target is met across the whole modelled range.
    """
    if not 0.0 < target_percent <= 100.0:
        raise ValueError(
            f"target_percent must be in (0, 100], got {target_percent}"
        )
    lo, hi = 0.0, 0.5
    if predicted_percent_correct(scheme, lo) < target_percent:
        return 0.0
    if predicted_percent_correct(scheme, hi) >= target_percent:
        return hi
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if predicted_percent_correct(scheme, mid) >= target_percent:
            lo = mid
        else:
            hi = mid
    return lo


def fit_budget(scheme: str, target_percent: float) -> float:
    """Raw FIT rate a configuration tolerates at a target accuracy.

    The paper's headline in budget form: ``fit_budget("tmr", 98.0)``
    lands in the 1e24 decade.
    """
    fraction = fault_budget(scheme, target_percent)
    return fit_for_fault_fraction(fraction, _scheme_sites(scheme))


def accuracy_per_overhead(scheme: str, p: float) -> float:
    """Predicted percent-correct divided by area overhead vs ``none``.

    A crude figure of merit: how much accuracy each unit of silicon
    (site) buys at fault fraction ``p``.
    """
    overhead = _scheme_sites(scheme) / _scheme_sites("none")
    return predicted_percent_correct(scheme, p) / overhead


def tradeoff_table(
    p: float,
    schemes: Sequence[str] = MODELLED_SCHEMES,
) -> List[Tuple[str, float, float, float]]:
    """(scheme, overhead, accuracy, accuracy/overhead) rows at one rate."""
    rows = []
    for scheme in schemes:
        overhead = _scheme_sites(scheme) / _scheme_sites("none")
        accuracy = predicted_percent_correct(scheme, p)
        rows.append((scheme, overhead, accuracy, accuracy / overhead))
    return rows


def nmr_breakeven_probability() -> float:
    """Per-copy error probability above which majority voting *hurts*.

    Classic result: for any odd N, N-modular redundancy beats a single
    copy exactly when the per-copy error probability is below 1/2.
    """
    return 0.5


def marginal_order_gain(p: float, copies: int) -> float:
    """Error-probability reduction from adding two more copies.

    ``majority_error(p, copies) - majority_error(p, copies + 2)`` --
    positive below the breakeven point, shrinking geometrically, which
    is why the paper stops at triplication.
    """
    return majority_error_prob(p, copies) - majority_error_prob(p, copies + 2)
