"""End-to-end tests for the chaos harness.

These spawn real ``nanobox-repro`` child processes and a real served
child, kill/hang/corrupt/tamper with them, and assert the recovery
invariants -- the same checks CI runs.  One shared suite invocation
covers every run-level mode plus the sub-second service modes
(``dup-storm``, ``tamper``); ``overload``, ``sigterm`` and ``kill9``
interrupt ~8s jobs and run in CI's ``crash-safety`` job.
"""

import pytest

from repro.perf import chaos_exec
from repro.perf.chaos_exec import (
    CHAOS_MODES,
    ChaosOutcome,
    chaos_exec_report,
    run_chaos_suite,
)

TIER1_MODES = (
    "kill", "hang", "corrupt", "disk-full", "deadline", "dup-storm", "tamper",
)


@pytest.fixture(scope="module")
def suite_outcomes(tmp_path_factory):
    """Run the tier-1 fault-mode suite once; every test inspects it."""
    workdir = tmp_path_factory.mktemp("chaos-suite")
    return run_chaos_suite(
        modes=TIER1_MODES, workdir=workdir, seed=11, timeout=120.0
    )


def _outcome(outcomes, mode):
    return next(o for o in outcomes if o.mode == mode)


class TestChaosSuite:
    def test_every_mode_ran(self, suite_outcomes):
        assert tuple(o.mode for o in suite_outcomes) == TIER1_MODES

    @pytest.mark.parametrize("mode", TIER1_MODES)
    def test_mode_recovered_with_identical_output(self, suite_outcomes, mode):
        outcome = _outcome(suite_outcomes, mode)
        assert outcome.recovered, outcome
        assert outcome.byte_identical, outcome

    def test_kill_mode_reused_surviving_checkpoints(self, suite_outcomes):
        kill = _outcome(suite_outcomes, "kill")
        # SIGKILL lands after chunk 1's checkpoint: exactly two chunks
        # survive and are reused on resume.
        assert kill.reused_chunks == 2
        assert kill.total_chunks > kill.reused_chunks

    def test_corrupt_mode_quarantined_both_records(self, suite_outcomes):
        corrupt = _outcome(suite_outcomes, "corrupt")
        assert corrupt.quarantined == 2
        assert corrupt.reused_chunks == corrupt.total_chunks - 2

    def test_deadline_mode_reused_nothing_then_completed(
        self, suite_outcomes
    ):
        deadline = _outcome(suite_outcomes, "deadline")
        assert deadline.reused_chunks == 0

    def test_dup_storm_computed_exactly_once(self, suite_outcomes):
        dup = _outcome(suite_outcomes, "dup-storm")
        assert dup.detail.startswith("1 computation(s) for 12 submissions")

    def test_tamper_quarantines_the_one_cache_record(self, suite_outcomes):
        tamper = _outcome(suite_outcomes, "tamper")
        assert tamper.quarantined == 1

    def test_report_is_deterministic_text(self, suite_outcomes):
        report = chaos_exec_report(suite_outcomes)
        assert report == chaos_exec_report(list(suite_outcomes))
        for mode in TIER1_MODES:
            assert mode in report


class TestHarnessPlumbing:
    def test_mode_listing_is_stable(self):
        assert CHAOS_MODES == (
            "kill", "hang", "corrupt", "disk-full", "deadline",
            "overload", "dup-storm", "sigterm", "kill9", "tamper",
        )

    def test_unknown_mode_rejected_before_any_child_runs(
        self, tmp_path, monkeypatch
    ):
        def no_children(*args, **kwargs):
            raise AssertionError("a child ran for an invalid mode list")

        monkeypatch.setattr(chaos_exec, "_run_cli", no_children)
        with pytest.raises(ValueError, match="unknown chaos mode"):
            run_chaos_suite(modes=("kill", "meteor"), workdir=tmp_path)

    def test_references_run_once_per_argv(self, tmp_path, monkeypatch):
        """Run-level modes share one clean sweep; a service-only suite
        never runs it."""
        runs = []

        def fake_run_cli(argv, env_extra=None, timeout=300.0):
            runs.append(tuple(argv))
            return 0, b"out", ""

        monkeypatch.setattr(chaos_exec, "_run_cli", fake_run_cli)
        ctx = chaos_exec._ChaosContext(tmp_path, seed=5, timeout=1.0)
        assert ctx.sweep_reference() == b"out"
        assert ctx.sweep_reference() == b"out"
        assert ctx.reference(("grid", "--seed", "5")) == b"out"
        assert runs == [
            ("sweep", "--quick", "--seed", "5"),
            ("grid", "--seed", "5"),
        ]

    def test_cli_choices_mirror_chaos_modes(self):
        """The cli keeps a literal copy (to avoid an import at parser
        build time); this pins the two lists together."""
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if action.dest == "command"
        )
        chaos_parser = subparsers.choices["chaos-exec"]
        modes = next(
            action for action in chaos_parser._actions
            if action.dest == "modes"
        )
        assert tuple(modes.choices) == CHAOS_MODES
        assert tuple(modes.default) == CHAOS_MODES

    def test_report_renders_failures_loudly(self):
        outcome = ChaosOutcome(
            mode="kill9", fault="f", recovered=False, byte_identical=False,
            detail="d",
        )
        report = chaos_exec_report([outcome])
        assert "NO" in report
