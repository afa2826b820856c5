"""Provider probing and graceful degradation of the compiled tier.

The provider is the generated C kernel or none; any failure is
captured, not raised.  Probing builds only the ``eval`` entry; the mask
draw and the tape scan build on first access, and each degrades to
``None`` on its own.  ``auto`` degrades silently; an explicit
``compiled`` request warns exactly once on stderr.  The probe verdict is cached per process,
so each test resets the cache around its monkeypatching (and the module
restores the real verdict afterwards for the rest of the suite).
"""

import os

import numpy as np
import pytest

from repro.faults.campaign import FaultCampaign
from repro.faults.mask import ExactFractionMask
from repro.kernels import get_provider, provider_failures, reset_provider_cache
from repro.kernels import cbuild
from repro.kernels import providers as providers_mod
from repro.obs import Observer, observing
from repro.perf.spec import ALUSpec
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads
from tests.conftest import no_cc, requires_cc


@pytest.fixture(autouse=True)
def fresh_probe():
    """Each test probes from scratch; the real verdict returns afterwards."""
    reset_provider_cache()
    yield
    reset_provider_cache()
    get_provider()  # re-warm for subsequent test modules


class TestProviderChain:
    @requires_cc
    def test_live_provider_is_the_c_kernel(self):
        provider = get_provider()
        assert provider is not None
        assert provider.name == "cc"
        assert not any(f.startswith("cc:") for f in provider_failures())

    def test_no_provider_at_all(self, monkeypatch):
        monkeypatch.setattr(providers_mod, "_build_cc", no_cc)
        assert get_provider() is None
        failures = provider_failures()
        assert len(failures) == 1 and failures[0].startswith("cc:")

    def test_probe_verdict_is_cached(self, monkeypatch):
        calls = []

        def counting_cc():
            calls.append(1)
            no_cc()

        monkeypatch.setattr(providers_mod, "_build_cc", counting_cc)
        assert get_provider() is None
        assert get_provider() is None
        assert len(calls) == 1


@requires_cc
class TestMaskEntryDegradation:
    """The native mask draw is optional: losing it keeps ``eval`` live."""

    @staticmethod
    def _assert_eval_live_mask_dead(provider):
        assert provider is not None and provider.name == "cc"
        assert provider.mask_fn is None
        assert any(f.startswith("cc.mask:") for f in provider_failures())
        cbuild.self_test(provider.eval_fn)

    def test_broken_entry_is_rejected(self, monkeypatch):
        real_load = cbuild.load_exact_fraction

        def broken_load(lib_path):
            draw = real_load(lib_path)

            def flips_site_zero(*args):
                words = draw(*args)
                if words is not None:
                    words[:, 0] ^= np.uint64(1)
                return words

            return flips_site_zero

        monkeypatch.setattr(cbuild, "load_exact_fraction", broken_load)
        provider = get_provider()
        self._assert_eval_live_mask_dead(provider)
        assert any("words differ" in f for f in provider_failures())
        # generate_batch reads the entry off the provider on every call,
        # so the rejected entry is never used, and a cache reset brings
        # the real one back with no second cache to clear.
        policy = ExactFractionMask(0.05)
        want = policy.numpy_batch(300, 4, np.random.default_rng(8))
        got = policy.generate_batch(300, 4, np.random.default_rng(8))
        np.testing.assert_array_equal(got, want)
        monkeypatch.undo()
        reset_provider_cache()
        assert get_provider().mask_fn is not None

    def test_missing_int128_drops_only_the_mask_entry(
        self, monkeypatch, tmp_path
    ):
        """A compiler without ``__int128`` builds the mask unit without
        its entry point; eval stays live."""
        from repro.kernels import csrc

        real_source = csrc.c_source
        assert "__int128" not in real_source("eval")
        for entry in ("mask", "tape"):
            assert "#ifdef __SIZEOF_INT128__" in real_source(entry)
        monkeypatch.setenv(cbuild.CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(
            csrc,
            "c_source",
            lambda entry: real_source(entry).replace(
                "#ifdef __SIZEOF_INT128__", "#ifdef REPRO_NO_SUCH_MACRO"
            ),
        )
        provider = get_provider()
        self._assert_eval_live_mask_dead(provider)
        assert any("no mask entry" in f for f in provider_failures())
        # The tape scan lives under the same guard and goes with it.
        assert provider.tape_fn is None
        assert any("no tape entry" in f for f in provider_failures())


@requires_cc
class TestTapeEntryDegradation:
    """The native tape scan is optional: losing it keeps ``eval`` and the
    mask draw live, and the fault streams fall back to NumPy."""

    @staticmethod
    def _assert_only_tape_dead(provider):
        assert provider is not None and provider.name == "cc"
        assert provider.tape_fn is None
        assert provider.mask_fn is not None
        tape = [f for f in provider_failures() if f.startswith("cc.tape:")]
        assert len(tape) == 1
        assert not any(f.startswith("cc.mask:") for f in provider_failures())
        cbuild.self_test(provider.eval_fn)
        cbuild.mask_self_test(provider.mask_fn)
        return tape[0]

    def test_broken_entry_is_rejected(self, monkeypatch):
        real_load = cbuild.load_tape_scan

        def broken_load(lib_path):
            scan = real_load(lib_path)

            def one_draw_short(pcg, cells, limits, rate):
                return scan(pcg, cells, np.maximum(limits - 1, 0), rate)

            return one_draw_short

        monkeypatch.setattr(cbuild, "load_tape_scan", broken_load)
        failure = self._assert_only_tape_dead(get_provider())
        assert "tape self-test" in failure
        # The streams read the entry off the provider on every scan, so
        # the rejected one is never used.
        from repro.faults.schedule import StreamBank
        from repro.faults.temporal import TemporalFaultProcess

        process = TemporalFaultProcess.transient(0.05)
        bank = StreamBank(process, 7, 2, 2)
        stream = process.attach((1, 1), 7)
        for _ in range(100):
            _, fired = bank.advance([3], [1])
            assert fired[0] == (not stream.sample().quiet)
        monkeypatch.undo()
        reset_provider_cache()
        assert get_provider().tape_fn is not None

    def test_missing_entry_drops_only_the_tape(self, monkeypatch):
        def missing(lib_path):
            raise cbuild.KernelBuildError(f"no tape entry in {lib_path}")

        monkeypatch.setattr(cbuild, "load_tape_scan", missing)
        failure = self._assert_only_tape_dead(get_provider())
        assert "no tape entry" in failure


def _artifacts(cache):
    """The entry of each shared object in a kernel cache, sorted."""
    return sorted(p.name.split("_")[1] for p in cache.glob("*.so"))


def _compiles(obs):
    histograms = obs.metrics.snapshot()["histograms"]
    return histograms.get("kernel.jit_compile", {}).get("count", 0)


@requires_cc
class TestOnDemandEntries:
    """Probing builds ``eval`` alone; each optional entry is built, loaded
    and self-tested once, on its first access."""

    def test_probe_builds_only_eval(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cbuild.CACHE_ENV, str(tmp_path))
        obs = Observer()
        with observing(obs):
            provider = get_provider()
            assert _compiles(obs) == 1
            assert _artifacts(tmp_path) == ["eval"]
            assert provider.tape_fn is not None
            assert provider.tape_fn is provider.tape_fn
            assert _compiles(obs) == 2
            assert _artifacts(tmp_path) == ["eval", "tape"]
            assert provider.mask_fn is not None
            assert provider.mask_fn is provider.mask_fn
            assert _compiles(obs) == 3
        assert _artifacts(tmp_path) == ["eval", "mask", "tape"]
        assert provider_failures() == []

    def test_compiler_failing_only_the_mask_unit(self, monkeypatch, tmp_path):
        """A toolchain that rejects the mask unit costs only the mask
        draw: ``eval`` and ``tape`` build and stay live."""
        real = cbuild.find_compiler()
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        wrapper = bin_dir / "cc"
        wrapper.write_text(
            "#!/bin/sh\n"
            'for arg in "$@"; do\n'
            '  case "$arg" in *.c)\n'
            '    if grep -q repro_exact_fraction "$arg"; then\n'
            "      echo 'mask unit rejected' >&2; exit 1\n"
            "    fi;;\n"
            "  esac\n"
            "done\n"
            f'exec "{real}" "$@"\n'
        )
        wrapper.chmod(0o755)
        monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
        monkeypatch.setenv(cbuild.CACHE_ENV, str(tmp_path / "cache"))
        assert cbuild.find_compiler() == str(wrapper)
        provider = get_provider()
        assert provider is not None and provider.name == "cc"
        assert provider.mask_fn is None
        assert provider.tape_fn is not None
        failures = provider_failures()
        assert len(failures) == 1
        assert failures[0].startswith("cc.mask:")
        assert "mask unit rejected" in failures[0]
        cbuild.self_test(provider.eval_fn)
        cbuild.tape_self_test(provider.tape_fn)
        assert _artifacts(tmp_path / "cache") == ["eval", "tape"]


class TestDegradedCampaigns:
    @pytest.fixture
    def dead_tier(self, monkeypatch):
        monkeypatch.setattr(providers_mod, "_build_cc", no_cc)

    @pytest.fixture
    def campaign(self):
        return FaultCampaign(
            ALUSpec.variant("alunn").build(), ExactFractionMask(0.05), seed=3
        )

    def test_auto_degrades_silently(self, dead_tier, campaign, capsys):
        assert campaign.resolve_backend("auto") == "batched"
        assert capsys.readouterr().err == ""

    def test_explicit_compiled_warns_once(self, dead_tier, campaign, capsys):
        assert campaign.resolve_backend("compiled") == "batched"
        first = capsys.readouterr().err
        assert "compiled backend unavailable (no working C compiler)" in first
        assert campaign.resolve_backend("compiled") == "batched"
        assert capsys.readouterr().err == ""

    def test_degraded_results_identical(self, dead_tier, campaign):
        workloads = paper_workloads(gradient(4, 4))
        degraded = campaign.run_workload_suite(workloads, 1, backend="compiled")
        batched = campaign.run_workload_suite(workloads, 1, backend="batched")
        assert degraded.trials == batched.trials

    @requires_cc
    @pytest.mark.parametrize("scheme", ["parity", "hamming-gate"])
    def test_unsupported_unit_with_live_provider_is_silent(
        self, capsys, scheme
    ):
        """Provider is live but the unit has no lowered form: mirrors the
        batched tier's silent scalar fallback, no warning."""
        assert get_provider() is not None
        campaign = FaultCampaign(
            ALUSpec.simplex(scheme).build(),
            ExactFractionMask(0.05),
            seed=3,
        )
        assert campaign.resolve_backend("compiled") == "batched"
        assert capsys.readouterr().err == ""


@requires_cc
class TestWarmupAccounting:
    def test_compile_time_lands_on_jit_timer(self):
        """First-call JIT/compile cost is excluded from trial timers by
        recording it under kernel.jit_compile / kernel.warmup instead."""
        from repro.kernels import build_engine
        from repro.obs import Observer, observing

        obs = Observer()
        with observing(obs):
            reset_provider_cache()
            assert get_provider() is not None
            engine = build_engine(ALUSpec.variant("alunn").build(), "compiled")
            assert engine is not None
            snapshot = obs.metrics.snapshot()
        timers = set(snapshot["histograms"])
        assert "kernel.jit_compile" in timers
        assert "kernel.warmup" in timers
        # No campaign trial timer fired during compile/warmup.
        assert not any(n.startswith("campaign.trial") for n in timers)
        assert snapshot["counters"]["kernel.provider.cc"] >= 1
        assert snapshot["counters"]["kernel.engines_built"] >= 1
