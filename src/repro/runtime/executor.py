"""Process-parallel sweep execution.

Every paper artifact is a sweep over (engine configuration x workload)
cells, and every cell is independent: the engines are deterministic,
cold-started per program, and share nothing but read-only fetch inputs.
This module fans those cells out over worker processes and merges the
per-cell results back **in submission order**, so a parallel sweep is
bit-identical to the serial one — parallelism only moves wall-clock,
never numbers.

The worker count comes from the ``REPRO_JOBS`` environment variable
(:func:`n_jobs`); ``REPRO_JOBS=1`` (the default) runs every cell
in-process, one after another.  Execution itself is delegated to
:mod:`repro.runtime.resilience`, which adds per-cell deadlines, bounded
retries, crash recovery and journaled resume without changing any
result.  Workers populate the persistent cache of
:mod:`repro.runtime.cache`; its atomic writes make concurrent population
safe, and :func:`execute` pre-warms the cache for the distinct workloads
of a sweep so concurrent workers do not race to interpret the same
program.

Imports of :mod:`repro.workloads` and :mod:`repro.experiments` are kept
inside functions: the workload registry itself layers on
:mod:`repro.runtime.cache`, and a module-level import in either direction
would be circular.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import resilience

#: Environment variable selecting the worker count.
JOBS_ENV = "REPRO_JOBS"

#: Errors a pickling probe can legitimately raise for unpicklable work.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError,
                  NotImplementedError)


def n_jobs(default: int = 1) -> int:
    """Worker count from ``REPRO_JOBS``.

    Accepted values: a positive integer, or ``auto``/``0`` for one worker
    per CPU.  Unset (or empty) falls back to ``default`` — serial.
    """
    raw = os.environ.get(JOBS_ENV)
    if raw is None or not raw.strip():
        return default
    text = raw.strip().lower()
    if text == "auto":
        return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV} must be a positive integer or 'auto', "
            f"got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{JOBS_ENV} must not be negative, got {value}")
    if value == 0:
        return os.cpu_count() or 1
    return value


def unpicklable_reason(fn: Callable, cells: Sequence) -> Optional[str]:
    """Why this sweep cannot cross a process boundary, or ``None``.

    Names the offending object so a parallel sweep that silently ran
    serially is diagnosable from its warning alone.
    """
    try:
        pickle.dumps(fn)
    except _PICKLE_ERRORS as exc:
        return f"sweep function {fn!r} is not picklable ({exc})"
    try:
        pickle.dumps(list(cells))
    except _PICKLE_ERRORS as exc:
        for i, cell in enumerate(cells):
            try:
                pickle.dumps(cell)
            except _PICKLE_ERRORS:
                return f"sweep cell {i} ({cell!r}) is not picklable"
        return f"sweep cells are not picklable ({exc})"
    return None


def execute(fn: Callable, cells: Iterable, jobs: Optional[int] = None,
            warm: Optional[Callable[[Sequence], None]] = None,
            label: Optional[str] = None,
            inject_faults: bool = True) -> List:
    """Order-preserving map of ``fn`` over ``cells``.

    With one job (or one cell) every cell runs in-process.  Otherwise
    the cells are dispatched to worker processes and the results are
    returned in cell order, which keeps any downstream aggregation
    deterministic.  ``warm``, when given, is invoked with the cell list
    before a parallel fan-out (and never for serial runs) to pre-populate
    shared caches; warm failures are reported as warnings, never fatal.

    Execution goes through :func:`repro.runtime.resilience.run_resilient`
    — cells run under the ``REPRO_CELL_TIMEOUT`` deadline with
    ``REPRO_RETRIES`` retries, worker crashes respawn the pool and re-run
    only the lost cells, and ``label``-ed sweeps checkpoint completed
    cells to a journal so interrupted runs resume.  Work that cannot be
    pickled — e.g. an ad-hoc lambda engine factory — falls back to the
    in-process worker with an explicit ``RuntimeWarning`` naming the
    unpicklable object.  Every sweep, serial or parallel, is dispatched
    by the work-stealing shard scheduler of :mod:`repro.runtime.shard`,
    one shard per worker.
    """
    return resilience.run_resilient(fn, cells, jobs=jobs, warm=warm,
                                    label=label,
                                    inject_faults=inject_faults).results


# ----------------------------------------------------------------------
# Suite sweeps: (engine config x workload) cells
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteSpec:
    """One suite-level simulation request inside a sweep.

    ``engine_factory`` must be a picklable callable ``(config) -> engine``
    (a class, a top-level function, or ``functools.partial`` of either);
    ``None`` selects the dual-block engine.
    """

    suite: str
    config: object          # EngineConfig (kept untyped to avoid cycles)
    budget: int
    engine_factory: Optional[Callable] = None


def _suite_names(suite: str) -> List[str]:
    from ..workloads import SPECFP95, SPECINT95

    names = {"int": SPECINT95, "fp": SPECFP95}
    return names[suite]


def _run_engine_cell(cell: Tuple[SuiteSpec, str]):
    """Worker: run one (spec, workload) cell, returning its FetchStats.

    Under ``REPRO_PROFILE=1`` the cell's phase breakdown (trace /
    segment / compile / engine) and its minor page faults are printed
    to stderr as it completes — from the worker's stderr when the sweep
    is parallel.
    """
    spec, name = cell
    from ..core.dual import DualBlockEngine
    from ..workloads import load_fetch_input
    from . import profile

    profiling = profile.enabled()
    base = profile.snapshot() if profiling else None
    faults_base = profile.minor_faults() if profiling else 0
    fetch_input = load_fetch_input(name, spec.config.geometry, spec.budget)
    factory = spec.engine_factory or DualBlockEngine
    with profile.phase("engine"):
        stats = factory(spec.config).run(fetch_input)
    if profiling:
        engine_name = getattr(factory, "__name__",
                              factory.__class__.__name__)
        profile.emit_cell(f"{engine_name}/{name}",
                          profile.delta_since(base),
                          profile.minor_faults() - faults_base)
    return stats


def _warm_fetch_cell(cell: Tuple[str, object, int]) -> Optional[str]:
    """Worker: populate the disk cache for one (name, geometry, budget).

    Warming is purely an optimization — the main pass recomputes any
    input it misses — so a failure is *returned* (never raised): one bad
    warm cell must not abort the sweep it was trying to speed up.
    """
    name, geometry, budget = cell
    from ..workloads import load_fetch_input

    try:
        load_fetch_input(name, geometry, budget)
    except Exception as exc:
        return f"{name}: {exc!r}"
    return None


def warm_fetch_inputs(triples: Iterable[Tuple[str, object, int]],
                      jobs: Optional[int] = None) -> None:
    """Pre-populate the persistent cache for distinct fetch inputs.

    Interpreting a workload dominates cell cost, and several cells of one
    sweep typically share a (workload, geometry, budget) triple; warming
    the disk cache first — itself fanned out — stops parallel workers
    from interpreting the same program concurrently.  A no-op when the
    persistent cache is disabled (workers could not share the result).

    Best-effort by construction: per-cell failures are caught in the
    worker, pool-level failures are caught here, and either way the main
    pass recomputes whatever warming missed.  Injected faults do not
    apply — they target sweep cells, whose indexes would otherwise alias
    warm cells.
    """
    from . import cache

    if not cache.enabled():
        return
    unique = list(dict.fromkeys(triples))
    try:
        failures = [f for f in execute(_warm_fetch_cell, unique, jobs,
                                       inject_faults=False)
                    if f]
    except Exception as exc:
        warnings.warn(
            f"cache warm-up aborted ({exc!r}); sweep cells will compute "
            f"their own inputs", RuntimeWarning, stacklevel=2)
        return
    if failures:
        warnings.warn(
            f"cache warm-up failed for {len(failures)} input(s) "
            f"({failures[0]}); the sweep will recompute them",
            RuntimeWarning, stacklevel=2)


def _warm_for_specs(cells: Sequence[Tuple[SuiteSpec, str]]) -> None:
    warm_fetch_inputs((name, spec.config.geometry, spec.budget)
                      for spec, name in cells)


def run_suite_specs(specs: Iterable[SuiteSpec],
                    jobs: Optional[int] = None,
                    label: Optional[str] = None) -> List:
    """Run a batch of suite sweeps, fanning out every cell at once.

    Returns one ``SuiteAggregate`` per spec, in spec order; the aggregate
    folds per-program ``FetchStats`` in the suite's canonical program
    order, exactly as the serial runner does.  ``label`` names the sweep
    in reports and keys its checkpoint journal.
    """
    from ..experiments.common import SuiteAggregate
    from . import profile

    specs = list(specs)
    cells = [(spec, name) for spec in specs
             for name in _suite_names(spec.suite)]
    results = execute(_run_engine_cell, cells, jobs, warm=_warm_for_specs,
                      label=label)
    with profile.phase("aggregate"):
        aggregates: List[SuiteAggregate] = []
        cursor = 0
        for spec in specs:
            aggregate = SuiteAggregate()
            for name in _suite_names(spec.suite):
                aggregate.add(name, results[cursor])
                cursor += 1
            aggregates.append(aggregate)
    return aggregates
