"""Shared fixtures for the NanoBox test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import providers
from repro.kernels.cbuild import KernelBuildError, find_compiler
from repro.workloads.bitmap import gradient
from repro.workloads.imaging import paper_workloads


@pytest.fixture
def rng():
    """Deterministic NumPy generator for tests that need randomness."""
    return np.random.default_rng(12345)


#: Marks a test of the C kernel itself: it needs a C compiler on PATH.
requires_cc = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler on PATH"
)


def no_cc():
    """Stand-in for ``providers._build_cc`` with no C compiler."""
    raise KernelBuildError("no C compiler on PATH")


@pytest.fixture(params=["live", "dead"])
def kernel_provider(request, monkeypatch):
    """The process's provider, once live (the C kernel, with its native
    mask draw and tape scan) and once dead (no provider: every path is
    NumPy, plans included).

    Yields the provider or ``None``; the real verdict is restored after.
    """
    if request.param == "dead":
        monkeypatch.setattr(providers, "_build_cc", no_cc)
    providers.reset_provider_cache()
    provider = providers.get_provider()
    if request.param == "live" and (
        provider is None or provider.mask_fn is None or provider.tape_fn is None
    ):
        pytest.skip(f"no native entries: {providers.provider_failures()}")
    yield provider
    monkeypatch.undo()
    providers.reset_provider_cache()
    providers.get_provider()


@pytest.fixture(scope="session")
def paper_bitmap():
    """The 64-pixel gradient bitmap used as the default workload image."""
    return gradient(8, 8)


@pytest.fixture(scope="session")
def paper_instruction_streams(paper_bitmap):
    """Compiled reverse-video + hue-shift instruction streams."""
    return paper_workloads(paper_bitmap)


#: Representative operand pairs exercising corner values and mixed bits.
OPERAND_CASES = [
    (0x00, 0x00),
    (0xFF, 0xFF),
    (0xAA, 0x55),
    (0x0F, 0xF0),
    (0x01, 0xFF),
    (0x80, 0x80),
    (0xC8, 0x64),
    (0x3C, 0xA7),
]
