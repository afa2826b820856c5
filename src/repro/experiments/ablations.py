"""Ablation studies on the design choices behind the paper's results.

None of these appear in the paper; they answer the obvious follow-on
questions its Section 5 discussion raises:

* **Decoder semantics** -- how much of ``alunh``'s loss to ``alunn`` comes
  from the output-corrector architecture (false positives on check-bit
  syndromes) versus the Hamming code itself?  ``hamming-sec`` is the
  textbook decoder, ``hamming-fp`` the fully pessimistic one, ``hsiao``
  the SEC-DED code that refuses to correct on an even syndrome.
* **Redundancy order** -- is 3x the right bit-level replication, or do
  5x / 7x strings buy their area back?
* **Voter construction** -- the paper votes through fault-prone LUTs
  coded the same way as the ALU's tables; what does a differently-coded
  (or gate-level) voter cost?
* **Mask policy** -- exact-fraction (the paper's semantics) versus
  independent Bernoulli flips.
* **Hamming block size** -- 16-bit blocks match Table 2's 672 sites; how
  does protection scale with block granularity?

Every ablation accepts ``jobs`` (process-pool width; 1 = inline) and
``backend`` (evaluation tier, default ``auto``; every tier is
bit-identical); each series cell becomes one
:class:`~repro.perf.CampaignWorkItem`, so a single ablation's cells
parallelise across its whole grid.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.perf import ALUSpec, CampaignWorkItem, PolicySpec, run_campaign_items

#: Default fault percentages for the ablation sweeps (a dense low-end).
ABLATION_PERCENTS: Tuple[float, ...] = (0, 0.5, 1, 2, 3, 5, 9)


def sweep_unit(
    alu,
    percents: Sequence[float],
    trials_per_workload: int = 5,
    seed: int = 0,
    backend: str = "auto",
) -> List[float]:
    """Sweep one already-built unit over fault percentages, in process.

    For ad-hoc studies on units with no :class:`~repro.perf.ALUSpec`
    recipe (custom decoders, experimental wrappers): runs serially since
    a live unit cannot cross a process boundary.  Campaign semantics
    match :func:`_run_series` exactly.
    """
    from repro.faults.campaign import FaultCampaign
    from repro.faults.mask import ExactFractionMask
    from repro.workloads.bitmap import gradient
    from repro.workloads.imaging import paper_workloads

    workloads = paper_workloads(gradient(8, 8))
    scores = []
    for percent in percents:
        campaign = FaultCampaign(
            alu, ExactFractionMask(percent / 100.0), seed=seed
        )
        result = campaign.run_workload_suite(
            workloads, trials_per_workload, backend=backend
        )
        scores.append(result.percent_correct)
    return scores

#: One ablation series: (legend key, unit recipe, policy kind).
_SeriesEntry = Tuple[str, ALUSpec, str]


def _run_series(
    entries: Sequence[_SeriesEntry],
    percents: Sequence[float],
    trials_per_workload: int,
    seed: int,
    jobs: int,
    backend: str,
) -> Dict[str, List[float]]:
    """Run the full (series, percent) grid through the campaign executor."""
    items = [
        CampaignWorkItem(
            alu=spec,
            policy=PolicySpec(kind=policy_kind, value=percent / 100.0),
            trials_per_workload=trials_per_workload,
            seed=seed,
            backend=backend,
        )
        for _, spec, policy_kind in entries
        for percent in percents
    ]
    results = run_campaign_items(items, jobs=jobs)
    series: Dict[str, List[float]] = {}
    index = 0
    for key, _, _ in entries:
        series[key] = [
            results[index + offset].percent_correct
            for offset in range(len(percents))
        ]
        index += len(percents)
    return series


def hamming_semantics_ablation(
    percents: Sequence[float] = ABLATION_PERCENTS,
    trials_per_workload: int = 5,
    seed: int = 11,
    jobs: int = 1,
    backend: str = "auto",
) -> Dict[str, List[float]]:
    """Compare information-code decoder semantics against no code.

    Expected shape: ``hamming-sec`` (textbook SEC) and ``hsiao``
    (SEC-DED, never corrects on an even syndrome) beat ``none`` at low
    densities; the paper's output-corrector ``hamming`` loses to
    ``none`` everywhere; the pessimistic ``hamming-fp`` collapses
    fastest.
    """
    entries = [
        (scheme, ALUSpec.simplex(scheme, name=f"ablate[{scheme}]"), "exact")
        for scheme in ("none", "hamming", "hamming-sec", "hamming-fp", "hsiao")
    ]
    return _run_series(
        entries, percents, trials_per_workload, seed, jobs, backend
    )


def redundancy_order_ablation(
    percents: Sequence[float] = ABLATION_PERCENTS,
    trials_per_workload: int = 5,
    seed: int = 12,
    jobs: int = 1,
    backend: str = "auto",
) -> Dict[str, List[float]]:
    """Sweep bit-level replication order: 1x (none), 3x, 5x, 7x strings."""
    entries = [
        (label, ALUSpec.simplex(scheme, name=f"ablate[{label}]"), "exact")
        for scheme, label in (
            ("none", "1x"),
            ("tmr", "3x"),
            ("5mr", "5x"),
            ("7mr", "7x"),
        )
    ]
    return _run_series(
        entries, percents, trials_per_workload, seed, jobs, backend
    )


def voter_coding_ablation(
    percents: Sequence[float] = ABLATION_PERCENTS,
    trials_per_workload: int = 5,
    seed: int = 13,
    jobs: int = 1,
    backend: str = "auto",
) -> Dict[str, List[float]]:
    """Space-redundant TMR-LUT cores with differently built voters."""
    entries = [
        (
            f"voter:{voter_kind}",
            ALUSpec.space(
                "tmr", voter_kind, name=f"ablate[voter:{voter_kind}]"
            ),
            "exact",
        )
        for voter_kind in ("tmr", "none", "hamming", "cmos")
    ]
    return _run_series(
        entries, percents, trials_per_workload, seed, jobs, backend
    )


def mask_policy_ablation(
    percents: Sequence[float] = ABLATION_PERCENTS,
    trials_per_workload: int = 5,
    seed: int = 14,
    jobs: int = 1,
    backend: str = "auto",
) -> Dict[str, List[float]]:
    """Exact-fraction versus Bernoulli injection on the TMR ALU.

    The two should agree closely -- the exact-count draw is a conditioned
    version of the Bernoulli draw -- validating that the paper's injection
    semantics is not doing hidden work.
    """
    spec = ALUSpec.simplex("tmr", name="ablate[policy]")
    entries = [("exact", spec, "exact"), ("bernoulli", spec, "bernoulli")]
    return _run_series(
        entries, percents, trials_per_workload, seed, jobs, backend
    )


def hamming_block_size_ablation(
    percents: Sequence[float] = ABLATION_PERCENTS,
    trials_per_workload: int = 5,
    seed: int = 15,
    jobs: int = 1,
    backend: str = "auto",
) -> Dict[str, List[float]]:
    """Hamming protection granularity: 8-, 16-, and 32-bit blocks.

    Smaller blocks mean fewer non-addressed bits per syndrome, hence fewer
    false positives, at higher check-bit cost (the 16-bit block is what
    reproduces Table 2's 672 sites).
    """
    entries = [
        (
            f"block{block}",
            ALUSpec.simplex(
                "hamming", block_size=block, name=f"ablate[block{block}]"
            ),
            "exact",
        )
        for block in (8, 16, 32)
    ]
    return _run_series(
        entries, percents, trials_per_workload, seed, jobs, backend
    )
