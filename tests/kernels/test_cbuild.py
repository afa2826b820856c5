"""The kernel build cache under concurrent first-time builders.

Pool workers and parallel CI steps can all find the cache empty and
compile at once.  Each builder must compile its own copy of the source,
so none can truncate another's mid-compile and drop to the batched tier.
Every kernel entry is its own unit with its own artifact, so each one is
raced on its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernels import cbuild
from repro.kernels.csrc import ENTRIES

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

_BUILD = (
    "import sys\n"
    "from repro.kernels.cbuild import build_library\n"
    "from repro.kernels.csrc import c_source\n"
    "print(build_library(c_source(sys.argv[1]), sys.argv[1]))\n"
)


@pytest.mark.skipif(cbuild.find_compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("entry", ENTRIES)
def test_concurrent_builds_on_empty_cache_both_succeed(tmp_path, entry):
    env = dict(os.environ)
    env[cbuild.CACHE_ENV] = str(tmp_path)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    builders = [
        subprocess.Popen(
            [sys.executable, "-c", _BUILD, entry],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    results = [proc.communicate(timeout=120) for proc in builders]
    for proc, (_, err) in zip(builders, results):
        assert proc.returncode == 0, err
    paths = {out.strip() for out, _ in results}
    assert len(paths) == 1
    # One artifact, and no builder left its temporary source or object.
    name = Path(paths.pop()).name
    assert name.startswith(f"repro_{entry}_")
    assert [p.name for p in tmp_path.iterdir()] == [name]
