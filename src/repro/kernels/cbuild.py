"""Compile-and-cache machinery for the generated C kernel entries.

Each kernel entry (``eval``, ``mask``, ``tape``; see
:mod:`repro.kernels.csrc`) is its own translation unit, compiled into
its own shared object under a per-user cache directory the first time a
process asks for it, then loaded through ``ctypes``.  An artifact is
keyed by its entry's source hash and the compiler, so changing one
entry never rebuilds the others.  Subsequent runs -- and every worker
process of a campaign fan-out -- dlopen the cached artifact directly, so
JIT cost is paid once per machine and entry, not once per process, and
a run that never calls an entry never compiles it.

The cache directory defaults to a per-user path under the system temp
directory and can be pinned with ``REPRO_KERNEL_CACHE`` (useful in CI to
persist the artifacts across steps).  Writes follow the repo-wide
crash-consistency idiom: build to a unique temp name, ``os.replace``
into place, so concurrent builders race benignly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.faults.packing import WORD_DTYPE, words_for_sites

#: Environment override for the shared-object cache directory.
CACHE_ENV = "REPRO_KERNEL_CACHE"

#: Compilers probed in order; the first one on PATH wins.
COMPILERS = ("cc", "gcc", "clang")


class KernelBuildError(RuntimeError):
    """The C kernel could not be compiled or loaded on this machine."""


def cache_dir() -> Path:
    """The shared-object cache directory (created on demand)."""
    override = os.environ.get(CACHE_ENV)
    if override:
        path = Path(override)
    else:
        uid = os.getuid() if hasattr(os, "getuid") else "shared"
        path = Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def find_compiler() -> Optional[str]:
    """Absolute path of the first available C compiler, or ``None``."""
    for name in COMPILERS:
        found = shutil.which(name)
        if found:
            return found
    return None


def _cache_tag(source: str, compiler: str) -> str:
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(compiler.encode("utf-8"))
    digest.update(sys.platform.encode("utf-8"))
    return digest.hexdigest()[:16]


def build_library(source: str, entry: str) -> Path:
    """Compile one entry's ``source`` into the cache; returns the
    shared-object path, ``repro_<entry>_<source hash>.so``.

    Idempotent and concurrency-safe: a cached artifact is reused without
    invoking the compiler at all.
    """
    compiler = find_compiler()
    if compiler is None:
        raise KernelBuildError(
            f"no C compiler on PATH (tried {', '.join(COMPILERS)})"
        )
    directory = cache_dir()
    lib_path = directory / f"repro_{entry}_{_cache_tag(source, compiler)}.so"
    if lib_path.exists():
        return lib_path
    # Both the source and the object get per-process names: a shared
    # source name would let a second first-time builder truncate it
    # under the first one's compiler.
    src_path = directory / f".{lib_path.stem}.{os.getpid()}.c"
    tmp_path = directory / f".{lib_path.name}.{os.getpid()}.tmp"
    src_path.write_text(source, encoding="utf-8")
    cmd = [
        compiler, "-O2", "-shared", "-fPIC",
        "-o", str(tmp_path), str(src_path),
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise KernelBuildError(f"compiler invocation failed: {exc!r}") from exc
    finally:
        src_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        tmp_path.unlink(missing_ok=True)
        raise KernelBuildError(
            f"{compiler} failed ({proc.returncode}):\n{proc.stderr.strip()}"
        )
    os.replace(tmp_path, lib_path)
    return lib_path


#: Array arguments go in as raw addresses (``arr.ctypes.data``): a
#: ``data_as`` cast builds a reference cycle per argument per call.
#: Every wrapper keeps its arrays referenced for the length of the call.
_PTR = ctypes.c_void_p
_U64_MAX = (1 << 64) - 1


def load_eval(lib_path: Path) -> Callable:
    """dlopen the ``eval`` entry and wrap it in the eval signature.

    The returned callable is the plan evaluator ``fn(header, ipool,
    bpool, ops, va, vb, words, n, n_words, out, scratch)`` over
    contiguous NumPy arrays.
    """
    try:
        lib = ctypes.CDLL(str(lib_path))
        fn = lib.repro_eval_batch
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(f"could not load {lib_path}: {exc!r}") from exc
    fn.restype = None
    fn.argtypes = [
        _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
        ctypes.c_int64, ctypes.c_int64, _PTR, _PTR,
    ]

    def eval_batch(header, ipool, bpool, ops, va, vb, words, n, n_words,
                   out, scratch):
        fn(
            header.ctypes.data,
            ipool.ctypes.data,
            bpool.ctypes.data,
            ops.ctypes.data,
            va.ctypes.data,
            vb.ctypes.data,
            words.ctypes.data,
            int(n),
            int(n_words),
            out.ctypes.data,
            scratch.ctypes.data,
        )

    return eval_batch


def load_exact_fraction(lib_path: Path) -> Callable:
    """dlopen the ``mask`` entry and wrap its exact-fraction mask draw.

    The returned callable is ``draw(bit_generator, n_sites, n_draws,
    base, remainder, tlo, thi)`` for a NumPy ``PCG64`` bit generator.
    It returns the packed ``(n_draws, n_words)`` masks and advances the
    generator exactly as ``Generator.random`` would, or returns ``None``
    with the generator untouched when the kernel declines the draw.
    Raises :class:`KernelBuildError` when the library lacks the entry
    point (a compiler without 128-bit integers).
    """
    try:
        fn = ctypes.CDLL(str(lib_path)).repro_exact_fraction
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(
            f"no mask entry in {lib_path}: {exc!r}"
        ) from exc
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        _PTR, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        _PTR, _PTR, _PTR,
    ]

    def exact_fraction(bit_generator, n_sites, n_draws, base, remainder,
                       tlo, thi):
        words = np.empty((n_draws, words_for_sites(n_sites)), dtype=WORD_DTYPE)
        # Two rows' band values plus the bucket scratch, two rows' sites.
        band_val = np.empty(3 * n_sites, dtype=np.uint64)
        band_idx = np.empty(2 * n_sites, dtype=np.int64)
        with bit_generator.lock:
            state = bit_generator.state
            pcg = state["state"]
            regs = np.array(
                [pcg["state"] >> 64, pcg["state"] & _U64_MAX,
                 pcg["inc"] >> 64, pcg["inc"] & _U64_MAX],
                dtype=np.uint64,
            )
            declined = fn(
                regs.ctypes.data,
                int(n_sites), int(n_draws), int(base),
                float(remainder), float(tlo), float(thi),
                words.ctypes.data,
                band_val.ctypes.data,
                band_idx.ctypes.data,
            )
            if declined:
                return None
            pcg["state"] = (int(regs[0]) << 64) | int(regs[1])
            bit_generator.state = state
        return words

    return exact_fraction


def load_tape_scan(lib_path: Path) -> Callable:
    """dlopen the ``tape`` entry and wrap its temporal fault-stream scan.

    The returned callable has :func:`repro.faults.schedule.scan_numpy`'s
    signature and contract: ``scan(pcg, cells, limits, rate)`` over the
    C-contiguous ``(n, 4)`` ``uint64`` register array ``pcg``, updated
    in place, returning each listed cell's hit offset (``-1``: none).
    Raises :class:`KernelBuildError` when the library lacks the entry
    point (a compiler without 128-bit integers).
    """
    try:
        fn = ctypes.CDLL(str(lib_path)).repro_tape_scan
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(
            f"no tape entry in {lib_path}: {exc!r}"
        ) from exc
    fn.restype = None
    fn.argtypes = [
        _PTR, _PTR, ctypes.c_int64, _PTR, ctypes.c_double, _PTR,
    ]

    def tape_scan(pcg, cells, limits, rate):
        if not (pcg.flags.c_contiguous and pcg.dtype == np.uint64
                and pcg.ndim == 2 and pcg.shape[1] == 4):
            raise ValueError("pcg must be a C-contiguous (n, 4) uint64 array")
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        limits = np.ascontiguousarray(limits, dtype=np.int64)
        if cells.ndim != 1 or limits.shape != cells.shape:
            raise ValueError("cells and limits must be equal-length vectors")
        if cells.size and not 0 <= cells.min() <= cells.max() < len(pcg):
            raise IndexError("cell index outside the register array")
        hits = np.empty(len(cells), dtype=np.int64)
        fn(
            pcg.ctypes.data,
            cells.ctypes.data,
            len(cells),
            limits.ctypes.data,
            float(rate),
            hits.ctypes.data,
        )
        return hits

    return tape_scan


def self_test(eval_fn) -> None:
    """Smoke-check an eval callable on a tiny known-answer plan.

    Guards against a miscompiled or ABI-skewed shared object being
    silently adopted: a bad artifact raises :class:`KernelBuildError`
    here and the provider chain falls through.
    """
    from repro.alu.nanobox import NanoBoxALU
    from repro.kernels.plan import build_plan

    unit = NanoBoxALU(scheme="none")
    plan = build_plan(unit)
    if plan is None:  # pragma: no cover - 'none' scheme always lowers
        raise KernelBuildError("self-test plan failed to lower")
    n_words = (plan.site_count + 63) // 64
    ops = np.array([0b111], dtype=np.int64)
    va = np.array([0x2B], dtype=np.int64)
    vb = np.array([0x2A], dtype=np.int64)
    words = np.zeros(n_words, dtype=np.uint64)
    out = np.zeros(1, dtype=np.int64)
    scratch = np.zeros(plan.scratch_size, dtype=np.uint8)
    eval_fn(
        plan.header, plan.ipool, plan.bpool, ops, va, vb, words,
        1, n_words, out, scratch,
    )
    expected = unit.compute(0b111, 0x2B, 0x2A).bundle
    if int(out[0]) != expected:
        raise KernelBuildError(
            f"kernel self-test mismatch: got {int(out[0])}, "
            f"expected {expected}"
        )


#: (fraction, n_sites, n_draws) of the mask self-test.  The kernel draws
#: rows in pairs one block of uniforms apart, so the cases cover both
#: block strides (a rounding uniform or none: 25% of 128 sites is exact),
#: odd draw counts (a lone last row) and rows of one and of several words.
_MASK_SELF_TEST = (
    (0.0517, 1, 3),
    (0.0517, 64, 5),
    (0.0517, 300, 16),
    (0.25, 128, 7),
)


def mask_self_test(draw) -> None:
    """Check a mask draw against the NumPy body on a few small draws.

    The native draw must give the same words *and* leave the generator
    in the same state; a draw that declines, differs or desynchronises
    raises :class:`KernelBuildError`.
    """
    from repro.faults.mask import ExactFractionMask

    for fraction, n_sites, n_draws in _MASK_SELF_TEST:
        policy = ExactFractionMask(fraction)
        native_rng = np.random.default_rng(2004)
        numpy_rng = np.random.default_rng(2004)
        got = policy.native_batch(draw, n_sites, n_draws, native_rng)
        want = policy.numpy_batch(n_sites, n_draws, numpy_rng)
        if got is None:
            raise KernelBuildError(
                f"mask self-test: native draw declined {n_sites} sites"
            )
        if not np.array_equal(got, want):
            raise KernelBuildError(
                f"mask self-test: words differ over {n_sites} sites"
            )
        if native_rng.bit_generator.state != numpy_rng.bit_generator.state:
            raise KernelBuildError(
                f"mask self-test: generator state differs over {n_sites} sites"
            )


def tape_self_test(scan) -> None:
    """Check a tape scan against the NumPy body on a few streams.

    The native scan must find the same hits *and* leave every register
    where the NumPy body does; a mismatch raises
    :class:`KernelBuildError`.
    """
    from repro.faults.schedule import scan_numpy, seed_streams

    cells = np.array([5, 0, 3, 1], dtype=np.int64)
    limits = np.array([64, 1, 0, 300], dtype=np.int64)
    for rate in (0.0, 0.02, 0.5, 0.9):
        native = seed_streams(2004, 2, 3)
        reference = native.copy()
        got = scan(native, cells, limits, rate)
        want = scan_numpy(reference, cells, limits, rate)
        if not np.array_equal(got, want):
            raise KernelBuildError(
                f"tape self-test: hits differ at rate {rate}"
            )
        if not np.array_equal(native, reference):
            raise KernelBuildError(
                f"tape self-test: registers differ at rate {rate}"
            )
