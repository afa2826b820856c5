"""Campaign-as-a-service: an overload-tolerant HTTP job runtime.

The paper builds a reliable grid out of unreliable cells by layering
defect tolerance at every level; this package applies the same
philosophy one level up, at the process/service tier.  A long-running
stdlib-only HTTP front end (:mod:`repro.service.server`) accepts
sweep/grid/chaos/lifecycle jobs and keeps the *service* degrading
gracefully the way a NanoBox cell does:

* **Bounded admission** (:mod:`repro.service.admission`): a fixed-size
  queue sheds load with ``429``/``503`` + ``Retry-After`` instead of
  growing without bound.
* **Content-addressed result cache** (:mod:`repro.service.cache`):
  completed artifacts live on disk as checkpoint records keyed by the
  canonical ``config_hash`` of the job, verified by the checkpoint store
  on every read so a corrupt or torn artifact is quarantined and
  recomputed, never served.
* **Single-flight deduplication** (:mod:`repro.service.runner`):
  N identical concurrent submissions collapse onto one computation.
* **Worker supervision**: jobs run as supervised child processes under
  the crash-safe runtime (``--checkpoint-dir --resume``); a child killed
  by a signal is run again and resumes from its checkpoints, any other
  failed exit fails the job, and a consecutively failing job class
  trips a circuit breaker.
* **Graceful drain**: SIGTERM stops admission, finishes or checkpoints
  in-flight jobs, and exits clean; a restarted server resumes them from
  its journal and checkpoint store.

``nanobox-repro chaos-exec`` (:mod:`repro.perf.chaos_exec`) hammers a
real child server with overload bursts, duplicate storms, SIGTERM,
``kill -9`` and cache tampering and asserts the invariants above end to
end, alongside its crash/hang/corruption modes for campaign runs.
"""

from repro.service.admission import AdmissionDecision, AdmissionQueue
from repro.service.cache import CacheStats, ResultCache
from repro.service.jobs import (
    JOB_KINDS,
    JobRecord,
    JobSpec,
    JobState,
    job_cache_key,
)
from repro.service.runner import ChildCliExecutor, JobManager, JobOutput
from repro.service.server import CampaignService, ServiceConfig

__all__ = [
    "JOB_KINDS",
    "AdmissionDecision",
    "AdmissionQueue",
    "CacheStats",
    "CampaignService",
    "ChildCliExecutor",
    "JobManager",
    "JobOutput",
    "JobRecord",
    "JobSpec",
    "JobState",
    "ResultCache",
    "ServiceConfig",
    "job_cache_key",
]
