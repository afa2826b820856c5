"""Cost of the service tier: result cache and single-flight dedup.

Two measurements with the service invariants asserted alongside:

* raw :class:`~repro.service.cache.ResultCache` put+get round-trip
  throughput, including the sha-256 verification every read pays (the
  price of never serving a torn or tampered artifact);
* a duplicate-heavy submission storm through a :class:`JobManager`
  with an in-process executor -- wall-clock is dominated by how well
  admission and single-flight collapse the storm, and the assertions
  pin exactly one computation per distinct spec with byte-identical
  responses (the dup-storm chaos invariant, measured instead of
  injected).

Set ``REPRO_BENCH_SMOKE=1`` (the CI smoke job) to shrink the workload
while keeping every identity assertion.
"""

import os
import time

from repro.service.cache import ResultCache
from repro.service.jobs import JobSpec
from repro.service.runner import JobManager, JobOutput

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Entries per cache round trip, and payload size in bytes.
CACHE_ENTRIES = 8 if SMOKE else 64
PAYLOAD_BYTES = 1 << 12 if SMOKE else 1 << 16

#: Storm shape: total submissions over this many distinct specs.
STORM_SUBMISSIONS = 24 if SMOKE else 240
STORM_DISTINCT = 3 if SMOKE else 12


def test_bench_result_cache_roundtrip(tmp_path):
    payloads = {
        f"key{index:04x}": bytes([index % 251]) * PAYLOAD_BYTES
        for index in range(CACHE_ENTRIES)
    }

    def put_and_get():
        cache = ResultCache(tmp_path / "cache")
        for key, payload in payloads.items():
            cache.put(key, payload)
        loaded = {key: cache.get(key) for key in payloads}
        return cache, loaded

    cache, loaded = put_and_get()
    assert loaded == payloads
    assert cache.stats.hits == CACHE_ENTRIES
    assert cache.stats.corruptions == 0


class _InProcessExecutor:
    """Deterministic artifact per cache key, with thread-safe counts."""

    def __init__(self):
        import threading

        self.calls = {}
        self._lock = threading.Lock()

    def run(self, record, job_dir, checkpoint_dir):
        with self._lock:
            self.calls[record.cache_key] = (
                self.calls.get(record.cache_key, 0) + 1
            )
        time.sleep(0.001)  # stand-in for real compute
        return JobOutput(
            stdout=b"artifact:" + record.cache_key.encode(),
            stderr="",
            exit_status=0,
        )


def test_bench_single_flight_dedup_storm(tmp_path):
    specs = [
        JobSpec.from_request("grid", {"rows": 4, "cols": 4, "seed": index})
        for index in range(STORM_DISTINCT)
    ]

    def storm():
        executor = _InProcessExecutor()
        manager = JobManager(
            tmp_path / "state",
            execute=executor,
            workers=4,
            queue_capacity=STORM_SUBMISSIONS,
        )
        manager.start()
        outcomes = [
            manager.submit(specs[index % STORM_DISTINCT])
            for index in range(STORM_SUBMISSIONS)
        ]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            records = manager.records()
            if all(r.state in ("done",) for r in records):
                break
            time.sleep(0.002)
        responses = [manager.result(o.record.id) for o in outcomes]
        manager.drain(grace=0.0)
        return executor, outcomes, responses

    executor, outcomes, responses = storm()
    # The dup-storm invariant, measured: one computation per distinct
    # spec, every response present and byte-identical to it.
    assert executor.calls == {spec.cache_key: 1 for spec in specs}
    assert all(outcome.accepted for outcome in outcomes)
    for index, (payload, reason) in enumerate(responses):
        assert reason == "ok"
        expected = specs[index % STORM_DISTINCT].cache_key.encode()
        assert payload == b"artifact:" + expected
