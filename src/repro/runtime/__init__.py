"""Sweep runtime: parallel execution, resilience and persistent caching.

The pieces:

* :mod:`repro.runtime.cache` — a persistent on-disk trace + segmentation
  cache (``REPRO_CACHE_DIR``, default ``~/.cache/repro``) layered under
  the in-memory caches of :mod:`repro.workloads.registry`, with atomic
  writes safe for concurrent workers, checksum verification, quarantine
  of corrupt artifacts and bounded-size eviction.
* :mod:`repro.runtime.executor` — a deterministic process-parallel sweep
  executor (``REPRO_JOBS``) that fans out (engine config x workload)
  cells and merges per-program statistics back in canonical order, so
  parallel runs are bit-identical to serial ones.
* :mod:`repro.runtime.resilience` — the fault-tolerant execution loop
  under the executor: per-cell deadlines (``REPRO_CELL_TIMEOUT``),
  bounded retries (``REPRO_RETRIES``), crash recovery with pool
  respawn, journaled checkpoint/resume (``REPRO_RESUME``) and the
  :class:`~repro.runtime.resilience.SweepReport` record of what
  degraded.  :mod:`repro.runtime.faults` injects deterministic faults
  (``REPRO_FAULT_SPEC``) so every recovery path stays testable.
* :mod:`repro.runtime.shard` — the work-stealing shard scheduler that
  dispatches every sweep: cells partition into one shard per worker,
  workers drain their home shards and steal from stragglers, one
  worker runs in-process and more run on worker processes, and results
  stay bit-exact under any worker count.
  :mod:`repro.runtime.sim` runs the same dispatch loop on seeded
  virtual workers so scheduling invariants are fast, deterministic
  tests.
* :mod:`repro.runtime.heap` — the process heap policy the fast engine
  driver and Figure 6's direction sweep apply once, so a sweep's freed
  temporaries stay in the heap for the next cell instead of being
  faulted in afresh.

Every other name loads lazily (:mod:`repro.lazy`): the workload
registry imports :mod:`repro.runtime.cache` at module load, and eagerly
importing the executor here (which itself reaches back into the
workloads package from its workers) would create an import cycle; the
resilience and shard layers also load the process-pool machinery, which
only a sweep needs.  ``cache``, ``faults``, ``heap`` and ``profile`` are
light and imported eagerly.
"""

from __future__ import annotations

from ..lazy import lazy_exports

# Light modules only (no workloads import — that would be circular).
from . import cache, faults, heap, profile  # noqa: F401

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "cache": ("cache",),
    "faults": ("faults",),
    "heap": ("heap",),
    "profile": ("profile",),
    "executor": ("executor", "JOBS_ENV", "SuiteSpec", "execute", "n_jobs",
                 "run_suite_specs", "unpicklable_reason",
                 "warm_fetch_inputs"),
    "resilience": ("resilience", "CellOutcome", "Journal", "SweepError",
                   "SweepReport", "SweepResult", "cell_timeout",
                   "drain_reports", "resume_enabled", "retry_limit",
                   "run_resilient"),
    "shard": ("shard", "ShardPlan", "ShardScheduler", "partition"),
    "sim": ("sim", "SimSpec", "simulate", "verify_invariants"),
})
