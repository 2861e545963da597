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
  :mod:`repro.runtime.sim` drives the same scheduler through a seeded
  discrete-event simulation so scheduling invariants are fast,
  deterministic tests.
* :mod:`repro.runtime.heap` — the process heap policy the fast engine
  driver and Figure 6's direction sweep apply once, so a sweep's freed
  temporaries stay in the heap for the next cell instead of being
  faulted in afresh.

The executor is re-exported lazily: the workload registry imports
:mod:`repro.runtime.cache` at module load, and eagerly importing the
executor here (which itself reaches back into the workloads package from
its workers) would create an import cycle.
"""

from __future__ import annotations

# Light modules only (no workloads import — that would be circular).
from . import cache, faults, heap, profile  # noqa: F401

_EXECUTOR_NAMES = ("JOBS_ENV", "SuiteSpec", "execute", "n_jobs",
                   "run_suite_specs", "unpicklable_reason",
                   "warm_fetch_inputs")

_RESILIENCE_NAMES = ("CellOutcome", "Journal", "SweepError", "SweepReport",
                     "SweepResult", "cell_timeout", "drain_reports",
                     "resume_enabled", "retry_limit", "run_resilient")

_SHARD_NAMES = ("ShardPlan", "ShardScheduler", "partition")

_SIM_NAMES = ("SimSpec", "simulate", "verify_invariants")

__all__ = ["cache", "executor", "faults", "heap", "profile",
           "resilience", "shard", "sim",
           *_EXECUTOR_NAMES, *_RESILIENCE_NAMES, *_SHARD_NAMES,
           *_SIM_NAMES]


def __getattr__(name: str):
    # import_module, not ``from . import ...``: the latter re-enters
    # this ``__getattr__`` via hasattr and recurses.
    import importlib

    if name == "executor" or name in _EXECUTOR_NAMES:
        executor = importlib.import_module(".executor", __name__)
        if name == "executor":
            return executor
        return getattr(executor, name)
    if name == "resilience" or name in _RESILIENCE_NAMES:
        resilience = importlib.import_module(".resilience", __name__)
        if name == "resilience":
            return resilience
        return getattr(resilience, name)
    if name == "shard" or name in _SHARD_NAMES:
        shard = importlib.import_module(".shard", __name__)
        if name == "shard":
            return shard
        return getattr(shard, name)
    if name == "sim" or name in _SIM_NAMES:
        sim = importlib.import_module(".sim", __name__)
        if name == "sim":
            return sim
        return getattr(sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
