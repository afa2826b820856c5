"""Ablation: how much of ``alunh``'s loss is the decoder architecture?

The paper attributes the information-coded ALU's poor showing to "false
positives caused by errors in bits which are not addressed by the lookup
table inputs".  Sweeping three decoder semantics separates the code from
the architecture:

* ``hamming``      -- paper-calibrated output corrector (false positives
  on check-bit syndromes);
* ``hamming-sec``  -- textbook positional SEC (no false positives);
* ``hamming-fp``   -- flip-output-on-any-syndrome (fully pessimistic).
"""

from benchmarks.conftest import SMOKE, print_series, scaled
from repro.experiments.ablations import ABLATION_PERCENTS, hamming_semantics_ablation


def run_ablation():
    return hamming_semantics_ablation(trials_per_workload=scaled(3, 1))


def test_bench_hamming_semantics():
    series = run_ablation()
    print_series("Hamming decoder semantics", ABLATION_PERCENTS, series)
    if SMOKE:
        return
    knee = list(ABLATION_PERCENTS).index(2)
    # The architecture, not the code, loses: a textbook decoder would
    # have beaten the uncoded table at the knee...
    assert series["hamming-sec"][knee] >= series["none"][knee]
    # ...while the paper's output corrector loses to it...
    assert series["hamming"][knee] < series["none"][knee]
    # ...and the pessimistic variant is no better than the paper's.
    assert series["hamming-fp"][knee] <= series["hamming"][knee] + 3.0
