"""Record a baseline series: several runs per workload, one seed each.

Usage (from the repository root)::

    python3 benchmarks/e2e/baseline.py [--runs 10] [--first-seed 100]
                                       [--label NAME] [--out FILE]

Runs ``run.py --workload W --seed S --trace 0`` ``--runs`` times per
workload, each with its own seed, and appends one series to ``--out``
(default ``benchmarks/e2e/baseline.json``): per workload and end-to-end
metric, the median, the quartiles and the spread, which is
``(q3 - q1) / median`` as ``statistics.quantiles(values, n=4)`` gives
the quartiles.  A metric's bound in ``BENCHMARK.json`` should stay above
its spread.  Every run must pass its checks, or nothing is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks")
    return result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--label", default="baseline")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [args.first_seed + 17 * i for i in range(args.runs)]
    series = {"label": args.label, "seeds": seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict = {}
        for seed in seeds:
            for name, entry in run_once(workload, seed).items():
                values.setdefault(name, []).append(entry["value"])
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": vals,
            }
            print(f"{workload:<11} {name:<12} median {median:10.4f}  "
                  f"spread {summary[name]['spread']:.4f}", flush=True)
        series["workloads"][workload] = summary
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document.setdefault("series", []).append(series)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
