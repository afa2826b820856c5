"""A run compiles only the kernel entries it calls.

Each case starts a fresh interpreter on an empty ``REPRO_KERNEL_CACHE``
and reads which entries' shared objects it left behind: a grid image job
needs only the plan evaluator, a Figure 7 sweep adds the exact-fraction
mask draw, and a fleet soak adds the temporal tape scan.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import cbuild
from tests.conftest import requires_cc

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

_FLEET_SOAK = (
    "from repro.experiments.fleet import run_fleet_soak\n"
    "from repro.faults.temporal import TemporalFaultProcess\n"
    "print(run_fleet_soak(16, 16, ticks=20, regions=2, wave_period=5,\n"
    "    probe_interval=5,\n"
    "    process=TemporalFaultProcess.transient(1e-3, errors_per_cycle=3)))\n"
)


def _entries_built(tmp_path, *args):
    """Run ``python *args`` on an empty kernel cache; the entries it built."""
    env = dict(os.environ)
    env[cbuild.CACHE_ENV] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env.pop("REPRO_BACKEND", None)
    proc = subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # Nothing but finished artifacts: no temporary source or object.
    names = [p.name for p in tmp_path.iterdir()]
    assert all(name.endswith(".so") for name in names), names
    return sorted(name.split("_")[1] for name in names)


@requires_cc
@pytest.mark.parametrize(
    "args, entries",
    [
        pytest.param(
            ("-m", "repro.cli", "grid", "--rows", "4", "--cols", "4",
             "--fault-percent", "1", "--kill", "1,1@40"),
            ["eval"],
            id="grid-image",
        ),
        pytest.param(
            ("-m", "repro.cli", "sweep", "--figure", "7", "--quick"),
            ["eval", "mask"],
            id="figure7-quick",
        ),
        pytest.param(("-c", _FLEET_SOAK), ["eval", "tape"], id="fleet-soak"),
    ],
)
def test_run_builds_only_the_entries_it_calls(tmp_path, args, entries):
    assert _entries_built(tmp_path, *args) == entries
