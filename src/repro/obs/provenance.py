"""Run provenance: who/what/where produced an artifact.

Every ``replay`` manifest embeds one :func:`collect_provenance` block so
a run recorded today can be interrogated months later: which commit
produced it, on what interpreter and NumPy, on what class of machine,
from which seed and configuration.  This is the same discipline the
paper's own Monte Carlo tables need (five trials per point mean nothing
without the seed and variant roster that produced them).

Nothing here perturbs an experiment: provenance is collected *around*
runs (before/after), never inside instrumented code, and the only
subprocess it spawns is ``git`` (gated, with a fallback when the tree is
not a checkout or git is missing).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Mapping, Optional

__all__ = [
    "PROVENANCE_KEYS",
    "collect_provenance",
    "config_hash",
    "git_revision",
    "machine_fingerprint",
    "package_versions",
]

#: Keys every provenance block carries (pinned by the schema golden test).
PROVENANCE_KEYS = (
    "git_sha",
    "git_dirty",
    "python",
    "platform",
    "packages",
    "machine",
    "seed",
    "config_hash",
)


def git_revision(cwd: Optional[str] = None) -> Dict[str, Any]:
    """The checkout's commit SHA and dirty flag, or ``None`` outside git.

    Runs ``git rev-parse`` / ``git status --porcelain`` with a short
    timeout; any failure (no git binary, not a repository, timeout)
    degrades to ``{"git_sha": None, "git_dirty": None}`` rather than
    erroring -- artifacts must be writable from an sdist install too.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if sha.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"git_sha": sha.stdout.strip(), "git_dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def package_versions() -> Dict[str, Optional[str]]:
    """Versions of the packages whose behaviour shapes the numbers."""
    versions: Dict[str, Optional[str]] = {}
    for name in ("repro", "numpy"):
        try:
            module = __import__(name)
            versions[name] = getattr(module, "__version__", None)
        except ImportError:
            versions[name] = None
    return versions


def machine_fingerprint() -> Dict[str, Any]:
    """A coarse, non-identifying description of the executing machine.

    The hostname is hashed (12 hex chars), not stored: enough to tell
    "same box as the baseline" from "different box", without leaking
    infrastructure names into committed artifacts.
    """
    node = platform.node() or "unknown"
    material = "|".join((node, platform.machine(), platform.processor()))
    return {
        "fingerprint": hashlib.sha256(material.encode()).hexdigest()[:12],
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def config_hash(config: Mapping[str, Any]) -> str:
    """Stable short hash of a JSON-safe configuration mapping.

    Canonicalised with sorted keys so dict ordering never changes the
    hash; two runs with equal configuration always agree.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def collect_provenance(
    seed: Optional[int] = None,
    config: Optional[Mapping[str, Any]] = None,
    cwd: Optional[str] = None,
) -> Dict[str, Any]:
    """The full provenance block embedded in artifacts.

    Args:
        seed: the run's root RNG seed, when it has one.
        config: JSON-safe run configuration; stored hashed (see
            :func:`config_hash`) plus verbatim under ``"config"``.
        cwd: directory whose git checkout to describe (default: CWD).
    """
    block: Dict[str, Any] = dict(git_revision(cwd=cwd))
    block["python"] = platform.python_version()
    block["platform"] = sys.platform
    block["packages"] = package_versions()
    block["machine"] = machine_fingerprint()
    block["seed"] = seed
    config = dict(config or {})
    block["config"] = config
    block["config_hash"] = config_hash(config)
    return block
