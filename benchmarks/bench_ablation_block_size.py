"""Ablation: Hamming protection block size.

16-bit blocks (5 check bits each) are what land ``alunh`` on Table 2's
672 sites.  Smaller blocks expose fewer non-addressed bits per syndrome
-- fewer false positives under the paper's output-corrector architecture
-- at a higher check-bit cost per stored bit.
"""

from benchmarks.conftest import SMOKE, print_series, scaled
from repro.experiments.ablations import ABLATION_PERCENTS, hamming_block_size_ablation


def run_ablation():
    return hamming_block_size_ablation(trials_per_workload=scaled(3, 1))


def test_bench_hamming_block_size():
    series = run_ablation()
    print_series("Hamming block size (paper uses 16)", ABLATION_PERCENTS,
                 series)
    if not SMOKE:
        knee = list(ABLATION_PERCENTS).index(1)
        assert series["block8"][knee] >= series["block16"][knee] - 3.0
        assert series["block16"][knee] >= series["block32"][knee] - 3.0
    for name, values in series.items():
        assert values[0] == 100.0, name
