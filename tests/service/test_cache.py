"""Result cache: one checkpoint record per entry, verification, LRU budget."""

import json

import pytest

from repro.perf.checkpoint import CheckpointStore
from repro.service.cache import ResultCache


def _record(cache, key):
    return CheckpointStore(cache.root, key, kind="job-stdout").path_for(0)


def _files(root, pattern="*"):
    return sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob(pattern)
        if p.is_file()
    )


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put("k1", b"artifact bytes")
        assert cache.get("k1") == b"artifact bytes"
        assert cache.stats.hits == 1 and cache.stats.puts == 1

    def test_any_bytes_round_trip_exactly(self, tmp_path):
        cache = ResultCache(tmp_path)
        blob = bytes(range(256)) + "µ≠\n".encode() + b"\xff\xfe\x80"
        assert cache.put("k1", blob)
        assert cache.get("k1") == blob
        assert ResultCache(tmp_path).get("k1") == blob

    def test_entry_is_one_record_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", b"x")
        assert _files(tmp_path) == ["k1/chunk_000000.json"]
        record = json.loads(_record(cache, "k1").read_text())
        assert record["kind"] == "job-stdout"
        assert record["payload"] == {"stdout": "x"}

    def test_absent_key_is_a_clean_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        assert cache.stats.misses == 1
        assert cache.stats.corruptions == 0

    def test_restart_inherits_entries(self, tmp_path):
        ResultCache(tmp_path).put("k1", b"payload")
        reopened = ResultCache(tmp_path)
        assert reopened.keys() == ["k1"]
        assert reopened.get("k1") == b"payload"

    def test_failed_write_is_reported_not_indexed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_DISK_FULL_AFTER", "0")
        cache = ResultCache(tmp_path)
        assert cache.put("k1", b"payload") is False
        assert cache.keys() == [] and cache.stats.puts == 0
        assert cache.get("k1") is None


class TestCorruptionIsNeverServed:
    def test_bit_flip_quarantined_and_missed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", b"payload-bytes")
        path = _record(cache, "k1")
        record = json.loads(path.read_text())
        record["payload"]["stdout"] = "payload-bytds"  # one bit: e -> d
        path.write_text(json.dumps(record))
        assert cache.get("k1") is None
        assert cache.stats.corruptions == 1
        assert "integrity" in cache.stats.corrupt_reasons[0]
        corrupt = _files(tmp_path, "*.corrupt*")
        assert corrupt == ["k1/chunk_000000.json.corrupt"]
        assert cache.keys() == []

    def test_truncated_record_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", b"a longer payload to truncate")
        path = _record(cache, "k1")
        path.write_bytes(path.read_bytes()[:40])
        assert cache.get("k1") is None
        assert "undecodable (truncated?)" in cache.stats.corrupt_reasons[0]
        corrupt = _files(tmp_path, "*.corrupt*")
        assert corrupt == ["k1/chunk_000000.json.corrupt"]

    def test_missing_record_is_a_clean_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", b"payload")
        _record(cache, "k1").unlink()
        assert cache.get("k1") is None
        assert cache.stats.misses == 1 and cache.stats.corruptions == 0
        assert cache.keys() == []

    def test_foreign_key_record_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", b"payload")
        # Copy k1's record under another key: the embedded key must trip.
        _record(cache, "k2").parent.mkdir()
        _record(cache, "k2").write_text(_record(cache, "k1").read_text())
        assert cache.get("k2") is None
        assert "config hash mismatch" in cache.stats.corrupt_reasons[0]
        assert cache.get("k1") == b"payload"

    def test_recompute_after_quarantine_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("k1", b"good")
        _record(cache, "k1").write_text("evil")
        assert cache.get("k1") is None
        cache.put("k1", b"good")
        assert cache.get("k1") == b"good"


class TestLruByteBudget:
    def _size(self, tmp_path, payload):
        probe = ResultCache(tmp_path / "probe")
        probe.put("a", payload)
        return probe.total_bytes()

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, byte_budget=-1)

    def test_budget_counts_record_bytes_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("a", b"x" * 10)
        assert cache.total_bytes() == _record(cache, "a").stat().st_size > 10

    def test_oldest_evicted_beyond_budget(self, tmp_path):
        entry = self._size(tmp_path, b"x" * 10)
        cache = ResultCache(tmp_path / "c", byte_budget=entry * 5 // 2)
        cache.put("a", b"x" * 10)
        cache.put("b", b"y" * 10)
        cache.put("c", b"z" * 10)  # three entries > 2.5: 'a' must go
        assert cache.get("a") is None
        assert cache.get("b") == b"y" * 10
        assert cache.get("c") == b"z" * 10
        assert cache.stats.evictions == 1
        assert cache.total_bytes() == 2 * entry

    def test_get_refreshes_recency(self, tmp_path):
        entry = self._size(tmp_path, b"x" * 10)
        cache = ResultCache(tmp_path / "c", byte_budget=entry * 5 // 2)
        cache.put("a", b"x" * 10)
        cache.put("b", b"y" * 10)
        assert cache.get("a") == b"x" * 10  # 'a' is now most-recent
        cache.put("c", b"z" * 10)  # evicts 'b', not 'a'
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_just_written_entry_never_evicted(self, tmp_path):
        cache = ResultCache(tmp_path, byte_budget=5)
        cache.put("big", b"n" * 50)  # alone over budget: still kept
        assert cache.get("big") == b"n" * 50
        cache.put("big2", b"m" * 50)  # now 'big' goes, 'big2' stays
        assert cache.get("big") is None
        assert cache.get("big2") == b"m" * 50

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(20):
            cache.put(f"k{index}", bytes([index]) * 100)
        assert cache.stats.evictions == 0
        assert len(cache.keys()) == 20

    def test_eviction_removes_files_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path, byte_budget=10)
        cache.put("a", b"x" * 10)
        cache.put("b", b"y" * 10)
        assert not _record(cache, "a").exists()
        assert not (tmp_path / "a").exists()
        assert _record(cache, "b").exists()
