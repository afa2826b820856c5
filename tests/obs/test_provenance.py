"""Tests for run-provenance collection."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from repro.obs.provenance import (
    PROVENANCE_KEYS,
    collect_provenance,
    config_hash,
    git_revision,
    machine_fingerprint,
    package_versions,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestCollectProvenance:
    def test_block_carries_every_pinned_key(self):
        block = collect_provenance(seed=7, config={"x": 1})
        for key in PROVENANCE_KEYS:
            assert key in block, key
        assert block["seed"] == 7
        assert block["config"] == {"x": 1}

    def test_block_is_json_safe(self):
        json.dumps(collect_provenance(seed=None, config=None))

    def test_python_and_platform_are_real(self):
        block = collect_provenance()
        assert block["python"] == platform.python_version()
        assert isinstance(block["platform"], str)


class TestGitRevision:
    def test_inside_this_checkout(self):
        info = git_revision()
        # The test suite runs from the repository; a checkout yields a
        # 40-hex SHA and a boolean dirty flag.
        if info["git_sha"] is not None:
            assert len(info["git_sha"]) == 40
            assert int(info["git_sha"], 16) >= 0
            assert isinstance(info["git_dirty"], bool)

    def test_outside_a_checkout_degrades_to_none(self, tmp_path):
        info = git_revision(cwd=str(tmp_path))
        assert info == {"git_sha": None, "git_dirty": None}


class TestPackageVersions:
    def test_tracks_the_packages_that_shape_the_numbers(self):
        versions = package_versions()
        assert set(versions) == {"repro", "numpy"}
        assert versions["numpy"]  # installed in every supported env

    def test_loads_no_test_tooling(self):
        """A ``--manifest`` run must not pay for importing pytest."""
        probe = (
            "import sys\n"
            "from repro.obs.provenance import package_versions\n"
            "package_versions()\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('pytest', '_pytest'))))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"


class TestMachineFingerprint:
    def test_fingerprint_is_stable_and_anonymised(self):
        first = machine_fingerprint()
        second = machine_fingerprint()
        assert first == second
        assert len(first["fingerprint"]) == 12
        int(first["fingerprint"], 16)
        # The raw hostname never appears in the block.
        node = platform.node()
        if node:
            assert node not in json.dumps(first)


class TestConfigHash:
    def test_key_order_never_changes_the_hash(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_value_changes_change_the_hash(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_hash_is_short_hex(self):
        digest = config_hash({})
        assert len(digest) == 16
        int(digest, 16)

    def test_embedded_hash_matches_embedded_config(self):
        block = collect_provenance(config={"trials": 5, "seed": 2004})
        assert block["config_hash"] == config_hash(block["config"])
