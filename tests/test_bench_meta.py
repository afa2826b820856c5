"""Meta-test: the benchmark scripts run as plain pytest, smoke-aware.

``REPRO_BENCH_SMOKE=1 pytest --ignore=benchmarks/e2e benchmarks`` (the
CI benchmarks job) relies on two conventions:

* every script calls its workload directly.  A test that requested a
  ``benchmark`` fixture would still pass wherever a timing plugin is
  installed, and only there, so no script may request one;
* every script that sizes its own workload consults the smoke machinery
  from ``benchmarks/conftest.py`` (``SMOKE``, ``scaled``, or the
  smoke-aware ``BENCH_TRIALS`` / ``BENCH_PERCENTS`` constants), or reads
  the environment variable directly.  The few scripts whose workload is
  one fixed, small run are listed in :data:`FIXED_SIZE`.

This test pins both, so a new script that breaks either fails CI
instead of silently depending on a plugin or slowing the smoke job.
"""

import ast
import re
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"

#: Any of these in a module's source counts as consulting the flag.
SMOKE_TOKENS = re.compile(
    r"\b(SMOKE|scaled|BENCH_TRIALS|BENCH_PERCENTS|REPRO_BENCH_SMOKE)\b"
)

#: Scripts whose workload is one fixed, small run with no size knob.
FIXED_SIZE = {
    "bench_ext_grid_pipeline",
    "bench_perf_primitives",
    "bench_table1_isa",
    "bench_table2_sites",
    "bench_text_area_overhead",
}

BENCH_SCRIPTS = sorted(BENCH_DIR.glob("bench_*.py"))


def _test_parameters(source):
    """``(test name, parameter name)`` for every test function."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            for arg in node.args.args:
                yield node.name, arg.arg


def test_benchmark_scripts_were_discovered():
    """Guard against the glob silently matching nothing."""
    assert len(BENCH_SCRIPTS) >= 30
    assert FIXED_SIZE <= {script.stem for script in BENCH_SCRIPTS}


@pytest.mark.parametrize(
    "script", BENCH_SCRIPTS, ids=lambda path: path.stem
)
def test_script_requests_no_benchmark_fixture(script):
    requests = [
        test for test, arg in _test_parameters(script.read_text())
        if arg == "benchmark"
    ]
    assert not requests, (
        f"{script.name}: {', '.join(requests)} request the `benchmark` "
        f"fixture; call the workload directly"
    )


@pytest.mark.parametrize(
    "script", BENCH_SCRIPTS, ids=lambda path: path.stem
)
def test_benchmark_honours_smoke_flag(script):
    if script.stem in FIXED_SIZE:
        return
    assert SMOKE_TOKENS.search(script.read_text()), (
        f"{script.name} never consults the smoke machinery; import "
        f"SMOKE/scaled from benchmarks.conftest and shrink its workload "
        f"knobs under smoke, or list it in FIXED_SIZE"
    )


def test_conftest_defines_the_smoke_lever():
    source = (BENCH_DIR / "conftest.py").read_text()
    assert 'os.environ.get("REPRO_BENCH_SMOKE")' in source
    assert "def scaled(" in source
