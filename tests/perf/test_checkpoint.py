"""Tests for the content-addressed, self-verifying checkpoint store.

The corruption matrix is the heart of the crash-safety contract: every
way a record can be wrong -- truncation, bit flips, stale schemas,
foreign configurations, index/kind mixups -- must be *detected*,
*quarantined* (kept as ``*.corrupt`` for post-mortems), and reported as
a miss so the chunk is recomputed.  Corruption must never be trusted.
"""

import json

import pytest

from repro.perf.checkpoint import (
    CHAOS_DISK_FULL_ENV,
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointStore,
    payload_digest,
    scan_run_states,
)


def _store(tmp_path, run_key="cafe0123", kind="chunk"):
    return CheckpointStore(tmp_path / "ck", run_key, kind=kind)


class TestRoundTrip:
    def test_save_then_load_hits(self, tmp_path):
        store = _store(tmp_path)
        assert store.save(0, [1, 2, 3])
        payload, hit = store.load(0)
        assert hit
        assert payload == [1, 2, 3]
        assert store.stats.hits == 1
        assert store.stats.writes == 1

    def test_missing_record_is_a_miss(self, tmp_path):
        store = _store(tmp_path)
        payload, hit = store.load(7)
        assert not hit
        assert payload is None
        assert store.stats.misses == 1

    def test_completed_indices(self, tmp_path):
        store = _store(tmp_path)
        for index in (3, 0, 5):
            store.save(index, {"i": index})
        assert store.completed_indices() == [0, 3, 5]

    def test_empty_store_has_no_completed_indices(self, tmp_path):
        assert _store(tmp_path).completed_indices() == []

    def test_run_key_required(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, "")

    def test_negative_index_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _store(tmp_path).path_for(-1)


def _corrupt_and_reload(tmp_path, mutate, index=0):
    """Save a record, mutate its file, reload; return (store, payload, hit)."""
    store = _store(tmp_path)
    assert store.save(index, {"value": 42})
    path = store.path_for(index)
    mutate(path)
    payload, hit = store.load(index)
    return store, payload, hit


class TestCorruptionMatrix:
    """Every corruption flavour: detected, quarantined, recomputable."""

    def _assert_quarantined(self, store, payload, hit, reason_fragment):
        assert not hit
        assert payload is None
        assert store.stats.corruptions == 1
        quarantined = list(store.directory.glob("*.corrupt*"))
        assert len(quarantined) == 1
        assert any(
            reason_fragment in reason for reason in store.stats.corrupt_reasons
        ), store.stats.corrupt_reasons

    def test_truncated_record(self, tmp_path):
        def truncate(path):
            path.write_text(path.read_text()[: path.stat().st_size // 2])

        store, payload, hit = _corrupt_and_reload(tmp_path, truncate)
        self._assert_quarantined(store, payload, hit, "undecodable")

    def test_bit_flipped_payload(self, tmp_path):
        def flip(path):
            record = json.loads(path.read_text())
            record["payload"]["value"] = 43  # digest no longer matches
            path.write_text(json.dumps(record))

        store, payload, hit = _corrupt_and_reload(tmp_path, flip)
        self._assert_quarantined(store, payload, hit, "integrity")

    def test_stale_schema_version(self, tmp_path):
        def stale(path):
            record = json.loads(path.read_text())
            record["schema_version"] = CHECKPOINT_SCHEMA_VERSION - 1
            path.write_text(json.dumps(record))

        store, payload, hit = _corrupt_and_reload(tmp_path, stale)
        self._assert_quarantined(store, payload, hit, "stale schema version")

    def test_foreign_schema(self, tmp_path):
        def foreign(path):
            record = json.loads(path.read_text())
            record["schema"] = "somebody.else"
            path.write_text(json.dumps(record))

        store, payload, hit = _corrupt_and_reload(tmp_path, foreign)
        self._assert_quarantined(store, payload, hit, "foreign schema")

    def test_mismatched_run_key(self, tmp_path):
        """A record from a different configuration must never be reused."""
        victim = _store(tmp_path, run_key="cafe0123")
        assert victim.save(0, {"value": 1})
        # Same directory layout, different run: copy the record across.
        imposter = _store(tmp_path, run_key="beef4567")
        imposter.directory.mkdir(parents=True, exist_ok=True)
        imposter.path_for(0).write_text(victim.path_for(0).read_text())
        payload, hit = imposter.load(0)
        self._assert_quarantined(imposter, payload, hit, "config hash mismatch")

    def test_mismatched_chunk_index(self, tmp_path):
        def shift(path):
            record = json.loads(path.read_text())
            record["chunk_index"] = 9
            path.write_text(json.dumps(record))

        store, payload, hit = _corrupt_and_reload(tmp_path, shift)
        self._assert_quarantined(store, payload, hit, "chunk index mismatch")

    def test_mismatched_kind(self, tmp_path):
        store = _store(tmp_path, kind="campaign-results")
        assert store.save(0, {"value": 1})
        other = CheckpointStore(
            tmp_path / "ck", "cafe0123", kind="lifecycle-points"
        )
        payload, hit = other.load(0)
        self._assert_quarantined(other, payload, hit, "payload kind mismatch")

    def test_not_an_object(self, tmp_path):
        def scalar(path):
            path.write_text("[1, 2, 3]")

        store, payload, hit = _corrupt_and_reload(tmp_path, scalar)
        self._assert_quarantined(store, payload, hit, "not a record object")

    def test_missing_payload(self, tmp_path):
        def strip(path):
            record = json.loads(path.read_text())
            del record["payload"]
            path.write_text(json.dumps(record))

        store, payload, hit = _corrupt_and_reload(tmp_path, strip)
        self._assert_quarantined(store, payload, hit, "missing payload")

    @pytest.mark.parametrize("stored", [[1], [1, 2, 3], {"value": 1}])
    def test_wrong_result_count(self, tmp_path, stored):
        store = _store(tmp_path)
        assert store.save(0, stored)
        payload, hit = store.load(0, count=2)
        self._assert_quarantined(store, payload, hit, "result count mismatch")
        assert store.stats.hits == 0 and store.stats.misses == 1

    def test_quarantine_keeps_corrupt_file_for_postmortem(self, tmp_path):
        def truncate(path):
            path.write_text("{")

        store, _, _ = _corrupt_and_reload(tmp_path, truncate)
        corrupt = list(store.directory.glob("*.corrupt"))
        assert len(corrupt) == 1
        assert corrupt[0].read_text() == "{"
        # The original slot is free again: a recompute can save cleanly.
        assert store.save(0, {"value": 42})
        payload, hit = store.load(0)
        assert hit and payload == {"value": 42}

    def test_repeated_corruption_gets_serial_suffixes(self, tmp_path):
        store = _store(tmp_path)
        for _ in range(2):
            store.save(0, {"value": 1})
            store.path_for(0).write_text("{")
            _, hit = store.load(0)
            assert not hit
        names = sorted(p.name for p in store.directory.glob("*.corrupt*"))
        assert names == [
            "chunk_000000.json.corrupt",
            "chunk_000000.json.corrupt1",
        ]


class TestDiskFullDegradation:
    def test_injected_disk_full_counts_write_errors(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_DISK_FULL_ENV, "2")
        store = _store(tmp_path)
        assert store.save(0, [0])
        assert store.save(1, [1])
        assert not store.save(2, [2])  # degraded, not raised
        assert not store.save(3, [3])
        assert store.stats.writes == 2
        assert store.stats.write_errors == 2
        assert store.completed_indices() == [0, 1]

    def test_unserialisable_payload_still_raises(self, tmp_path):
        store = _store(tmp_path)
        with pytest.raises(TypeError):
            store.save(0, {"bad": object()})


class TestPayloadDigest:
    def test_digest_is_canonical(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_digest_distinguishes_values(self):
        assert payload_digest([1]) != payload_digest([2])


class TestScanRunStates:
    def test_absent_root_is_empty(self, tmp_path):
        assert scan_run_states(tmp_path / "nope") == []

    def test_counts_live_chunks_without_state_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", "runa0123")
        store.save(0, [0])
        store.save(1, [1])
        [summary] = scan_run_states(tmp_path / "ck")
        assert summary == {
            "run_key": "runa0123",
            "completed_chunks": 2,
            "total_chunks": None,
            "status": None,
            "corrupt_files": 0,
        }

    def test_merges_state_json_and_counts_quarantine(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", "runb0123")
        store.save(0, [0])
        chunk = store.path_for(0)
        chunk.rename(chunk.with_name(chunk.name + ".corrupt"))
        (store.directory / "state.json").write_text(json.dumps({
            "status": "complete", "total_chunks": 4, "completed_chunks": 4,
        }))
        [summary] = scan_run_states(tmp_path / "ck")
        assert summary["status"] == "complete"
        assert summary["total_chunks"] == 4
        assert summary["completed_chunks"] == 4  # state wins when larger
        assert summary["corrupt_files"] == 1

    def test_torn_state_json_degrades_to_disk_truth(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck", "runc0123")
        store.save(0, [0])
        (store.directory / "state.json").write_text('{"status": "compl')
        [summary] = scan_run_states(tmp_path / "ck")
        assert summary["status"] is None
        assert summary["completed_chunks"] == 1

    def test_runs_listed_in_sorted_order(self, tmp_path):
        for key in ("zzzz0000", "aaaa0000"):
            CheckpointStore(tmp_path / "ck", key).save(0, [])
        keys = [s["run_key"] for s in scan_run_states(tmp_path / "ck")]
        assert keys == ["aaaa0000", "zzzz0000"]
