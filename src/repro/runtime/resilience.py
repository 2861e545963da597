"""Fault-tolerant sweep execution: retries, deadlines, checkpoint/resume.

The plain executor of :mod:`repro.runtime.executor` is all-or-nothing: a
single worker crash raises ``BrokenProcessPool`` and discards every
finished cell, a hung interpreter stalls the sweep forever, and an
interrupted run restarts from zero.  This module wraps sweep execution
in a recovery loop that never changes a reported number — every
recovered cell re-runs the same deterministic simulation — but survives
the faults a long campaign actually hits:

* **One scheduled loop**: every sweep, serial or parallel, is driven by
  the work-stealing :class:`~repro.runtime.shard.ShardScheduler` with
  one shard per worker, through :func:`repro.runtime.shard.drive` — the
  loop the discrete-event testbed runs, respawn budget and serial
  degrade included.  One worker runs in-process; two or more run on
  worker processes.
* **Per-cell deadline** (``REPRO_CELL_TIMEOUT``, seconds): a parallel
  cell that exceeds it has its worker killed and is retried.  In-process
  execution has no preemption boundary, so deadlines only apply to
  parallel sweeps.
* **Bounded retries** (``REPRO_RETRIES``, default 2) with exponential
  backoff: a failed, crashed or timed-out cell is re-run up to the
  budget, after which the sweep raises :class:`SweepError` carrying the
  full :class:`SweepReport`.
* **Crash recovery**: each worker slot owns a single-worker
  ``ProcessPoolExecutor``, so a dead interpreter breaks exactly one
  cell's pool — the pool is respawned and only the lost cell re-runs.
  When pools keep dying (or cannot be spawned at all) the scheduler
  finishes the sweep in-process with an explicit ``RuntimeWarning``,
  never silently.
* **Pool ownership**: the slots live in a :class:`WorkerPools` holder.
  A sweep given none (every CLI sweep) builds its own and shuts it down
  when it ends; a caller that passes one — the prediction service, for
  its whole lifetime — keeps the pools alive across sweeps and closes
  the holder itself.  A crash, a deadline kill or the respawn budget
  still terminates a slot's pool, which respawns lazily either way.
  Pools fork lazily, at the first cell dispatched to them, and the
  worker shim applies the parent's current ``REPRO_FAULT_SPEC`` to each
  cell, so a worker forked before the spec changed still honours it.
* **Checkpoint/resume**: labeled sweeps journal every completed cell's
  result to ``<cache-dir>/journal/<label>-<digest>/`` (atomic,
  checksummed); an interrupted rerun skips finished cells
  (``REPRO_RESUME``, default on) and merges bit-identically with an
  uninterrupted run, whatever its worker count.  The journal is deleted
  when the sweep completes.

Per-cell outcomes (ok / retried / timed-out / failed, plus resumed) are
recorded in a :class:`SweepReport`; the CLI prints a summary for any
sweep that degraded and exits non-zero when cells were dropped.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import time
import warnings
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Mapping, Optional, Sequence)

from . import cache, faults, profile

if TYPE_CHECKING:
    from .shard import ShardInfo

#: Environment variable: per-cell deadline in seconds (parallel sweeps).
TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
#: Environment variable: retry budget per cell.
RETRIES_ENV = "REPRO_RETRIES"
#: Environment variable: resume labeled sweeps from their journal.
RESUME_ENV = "REPRO_RESUME"

DEFAULT_RETRIES = 2

#: Exponential backoff between retries of one cell: BASE * 2**attempts,
#: capped.  Tests may patch BACKOFF_BASE to 0.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Pool respawns tolerated before the sweep degrades to in-process.
POOL_RESPAWN_BUDGET = 8

_OFF = {"", "0", "off", "none", "disable", "disabled"}
_FALSE = {"0", "off", "no", "false"}
_TRUE = {"1", "on", "yes", "true"}

#: Pickle protocol for journal entries and sweep keys — pinned so the
#: digest of an unchanged sweep is stable across interpreter runs.
_PICKLE_PROTOCOL = 4

#: Cell outcome statuses.
OK = "ok"
RETRIED = "retried"
TIMED_OUT = "timed-out"
FAILED = "failed"


def cell_timeout() -> Optional[float]:
    """Per-cell deadline from ``REPRO_CELL_TIMEOUT`` (None = no limit)."""
    raw = os.environ.get(TIMEOUT_ENV)
    if raw is None or raw.strip().lower() in _OFF:
        return None
    try:
        value = float(raw.strip())
    except ValueError:
        raise ValueError(
            f"{TIMEOUT_ENV} must be a positive number of seconds or "
            f"'off', got {raw!r}") from None
    if value <= 0:
        raise ValueError(
            f"{TIMEOUT_ENV} must be positive, got {value}")
    return value


def retry_limit() -> int:
    """Retry budget per cell from ``REPRO_RETRIES``."""
    raw = os.environ.get(RETRIES_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_RETRIES
    try:
        value = int(raw.strip())
    except ValueError:
        raise ValueError(
            f"{RETRIES_ENV} must be a non-negative integer, "
            f"got {raw!r}") from None
    if value < 0:
        raise ValueError(
            f"{RETRIES_ENV} must not be negative, got {value}")
    return value


def resume_enabled() -> bool:
    """Whether labeled sweeps resume from journals (``REPRO_RESUME``)."""
    raw = os.environ.get(RESUME_ENV)
    if raw is None or not raw.strip():
        return True
    text = raw.strip().lower()
    if text in _FALSE:
        return False
    if text in _TRUE:
        return True
    raise ValueError(
        f"{RESUME_ENV} must be a boolean ('1'/'0', 'on'/'off'), "
        f"got {raw!r}")


def _backoff(attempts_done: int) -> float:
    return min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempts_done))


@contextmanager
def scoped_environ(overrides: Mapping[str, Optional[str]],
                   ) -> Iterator[None]:
    """Temporarily set (or, with ``None``, unset) environment variables.

    The sanctioned way for callers outside the runtime config entry
    points (notably :mod:`repro.serve`) to scope runtime knobs like
    ``REPRO_CELL_TIMEOUT`` or ``REPRO_FAULT_SPEC`` around one dispatch:
    the previous values are restored on exit even when the body raises.
    Worker pools forked inside the scope inherit the overridden values.
    """
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# ----------------------------------------------------------------------
# Outcomes and reports
# ----------------------------------------------------------------------

@dataclass
class CellOutcome:
    """Recovery record for one sweep cell."""

    index: int
    status: str = OK      #: ok | retried | timed-out | failed
    attempts: int = 0     #: executions actually started
    timeouts: int = 0     #: attempts killed by the cell deadline
    resumed: bool = False  #: result loaded from the sweep journal
    error: str = ""       #: last failure, for failed cells
    shard: Optional[int] = None  #: home shard of the last attempt
    stolen: bool = False  #: some attempt ran on a stealing worker

    def finish(self) -> None:
        """Set the final status after a successful attempt."""
        if self.timeouts:
            self.status = TIMED_OUT
        elif self.attempts > 1:
            self.status = RETRIED
        else:
            self.status = OK


@dataclass
class SweepReport:
    """Structured account of one sweep's execution and recoveries."""

    label: Optional[str]
    n_cells: int
    jobs: int
    outcomes: List[CellOutcome] = field(default_factory=list)
    degraded_serial: bool = False  #: parallel execution was abandoned
    pool_respawns: int = 0         #: worker pools killed and respawned
    #: Scheduler account (:class:`repro.runtime.shard.ShardInfo`), set
    #: for every sweep :func:`run_resilient` runs.
    shards: Optional["ShardInfo"] = None
    #: Wall-clock per phase accumulated in this process during the sweep
    #: (``REPRO_PROFILE=1``); empty when profiling is off.  Parallel
    #: sweeps only see the parent's phases — per-cell breakdowns come
    #: from worker stderr.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Minor page faults this process took during the sweep
    #: (``REPRO_PROFILE=1``, same scope as ``phase_seconds``); None when
    #: profiling is off.
    minflt: Optional[int] = None

    def _with_status(self, status: str) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status == status]

    @property
    def n_ok(self) -> int:
        return sum(1 for o in self.outcomes if o.status != FAILED)

    @property
    def failed_cells(self) -> List[int]:
        return [o.index for o in self._with_status(FAILED)]

    @property
    def retried_cells(self) -> List[int]:
        return [o.index for o in self._with_status(RETRIED)]

    @property
    def timed_out_cells(self) -> List[int]:
        return [o.index for o in self._with_status(TIMED_OUT)]

    @property
    def resumed_cells(self) -> List[int]:
        return [o.index for o in self.outcomes if o.resumed]

    @property
    def clean(self) -> bool:
        """True when nothing degraded — no retries, kills or failures."""
        return (not self.failed_cells and not self.retried_cells
                and not self.timed_out_cells and not self.resumed_cells
                and not self.degraded_serial and not self.pool_respawns)

    def summary(self) -> str:
        """One-line human summary, printed by the CLI on degradation."""
        name = self.label or "<sweep>"
        bits = [f"sweep {name}: {self.n_ok}/{self.n_cells} cells ok"]
        if self.shards is not None:
            bits.append(self.shards.describe())
        if self.resumed_cells:
            bits.append(f"{len(self.resumed_cells)} resumed from journal")
        if self.retried_cells:
            bits.append(f"{len(self.retried_cells)} retried "
                        f"(cells {self.retried_cells})")
        if self.timed_out_cells:
            bits.append(f"{len(self.timed_out_cells)} timed out and "
                        f"recovered (cells {self.timed_out_cells})")
        if self.pool_respawns:
            bits.append(f"{self.pool_respawns} worker respawn(s)")
        if self.degraded_serial:
            bits.append("degraded to serial execution")
        if self.failed_cells:
            bits.append(f"{len(self.failed_cells)} FAILED "
                        f"(cells {self.failed_cells})")
        if self.phase_seconds:
            from . import profile

            phases = profile.format_phases(self.phase_seconds, self.minflt)
            bits.append(f"phases: {phases}")
        return "; ".join(bits)


class SweepError(RuntimeError):
    """A sweep dropped cells after exhausting every recovery path."""

    def __init__(self, report: SweepReport):
        self.report = report
        failed = report.failed_cells
        super().__init__(
            f"sweep {report.label or '<unlabeled>'}: {len(failed)} of "
            f"{report.n_cells} cells failed after retries "
            f"(cells {failed}); completed cells are journaled — rerun "
            f"to resume")


@dataclass
class SweepResult:
    """Results (in cell order) plus the execution report."""

    results: List
    report: SweepReport


#: Reports of completed sweeps, drained by the CLI for its summary.
_reports: List[SweepReport] = []


def drain_reports() -> List[SweepReport]:
    """Return and clear the accumulated sweep reports."""
    out = list(_reports)
    _reports.clear()
    return out


# ----------------------------------------------------------------------
# Journaled checkpoint/resume
# ----------------------------------------------------------------------

class Journal:
    """Digest-keyed directory of per-cell results under the cache dir.

    Each completed cell is written atomically as ``cell-<index>.pkl``
    (a SHA-256 header followed by the pickled result), so an interrupted
    sweep can resume: entries are self-verifying, torn writes are
    impossible, and a corrupt entry is simply recomputed.  Entries are
    keyed by the *global* cell index, so a resume may use a different
    worker count and still merge bit-exact.
    """

    def __init__(self, directory: Path, n_cells: int):
        self.directory = directory
        self.n_cells = n_cells

    @staticmethod
    def sweep_key(label: str, fn: Callable, cells: Sequence) -> \
            Optional[str]:
        """Stable digest of the sweep identity, or None if unkeyable."""
        h = hashlib.sha256()
        h.update(label.encode())
        h.update(b"\x00")
        h.update(f"{getattr(fn, '__module__', '?')}."
                 f"{getattr(fn, '__qualname__', '?')}".encode())
        h.update(b"\x00")
        try:
            h.update(pickle.dumps(list(cells), protocol=_PICKLE_PROTOCOL))
        except Exception:
            return None
        return h.hexdigest()[:16]

    @classmethod
    def open(cls, label: Optional[str], fn: Callable,
             cells: Sequence) -> Optional["Journal"]:
        """Journal for this sweep, or None when journaling is off."""
        if label is None:
            return None
        root = cache.cache_dir()
        if root is None:
            return None
        key = cls.sweep_key(label, fn, cells)
        if key is None:
            return None
        return cls(root / "journal" / f"{label}-{key}", len(cells))

    def _entry(self, index: int) -> Path:
        return self.directory / f"cell-{index}.pkl"

    def load(self) -> Dict[int, object]:
        """Verified completed-cell results from a previous run."""
        if not self.directory.is_dir():
            return {}
        loaded: Dict[int, object] = {}
        for path in sorted(self.directory.glob("cell-*.pkl")):
            try:
                index = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if not 0 <= index < self.n_cells:
                continue
            try:
                blob = path.read_bytes()
                digest, payload = blob[:32], blob[32:]
                if hashlib.sha256(payload).digest() != digest:
                    path.unlink(missing_ok=True)  # torn entry: recompute
                    continue
                loaded[index] = pickle.loads(payload)
            except Exception:
                path.unlink(missing_ok=True)
        return loaded

    def record(self, index: int, result: object) -> None:
        """Atomically append one completed cell to the journal."""
        try:
            payload = pickle.dumps(result, protocol=_PICKLE_PROTOCOL)
        except Exception:
            return  # unjournalable result: resume simply recomputes it
        path = self._entry(index)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(hashlib.sha256(payload).digest() + payload)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)

    def discard(self) -> None:
        """Remove the journal (the sweep completed)."""
        shutil.rmtree(self.directory, ignore_errors=True)


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------

def _pool_cell(fn: Callable, cell, index: int, attempt: int,
               inject: bool, shard: int, fault_spec: Optional[str]):
    """Worker-side shim: apply injected faults, then run the cell.

    ``shard`` labels the worker's profile output, so per-cell phase
    lines on stderr stay attributable per shard.  ``fault_spec`` is the
    parent's ``REPRO_FAULT_SPEC`` at dispatch: a long-lived worker was
    forked before the current sweep scoped it, so the cell carries it.
    """
    profile.set_shard(shard)
    with scoped_environ({faults.FAULTS_ENV: fault_spec}):
        if inject:
            faults.apply_cell_faults(index, attempt, isolated=True)
        return fn(cell)


def _new_pool() -> ProcessPoolExecutor:
    """One single-worker pool per slot (patchable in tests).

    A slot owning its own worker makes fault attribution exact: a dead
    interpreter breaks exactly one in-flight cell, so only that cell is
    retried — innocent neighbours keep their results.
    """
    return ProcessPoolExecutor(max_workers=1)


def _terminate_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Kill a pool's worker processes (hung or already broken)."""
    if pool is None:
        return
    processes = list(getattr(pool, "_processes", {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in processes:
        try:
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(1.0)
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class WorkerPools:
    """The worker processes of one or more sweeps: a pool per slot.

    Owned as the module docstring says.  :meth:`bind` makes the first
    ``n`` slots one sweep's :func:`~repro.runtime.shard.drive` worker
    set: a missing pool forks when its slot is handed a cell, a killed
    one forks again lazily, and ``wait`` blocks, never polling.
    """

    down = frozenset()

    def __init__(self) -> None:
        self.pools: List[Optional[ProcessPoolExecutor]] = []
        self.futures: Dict[int, Future] = {}

    def bind(self, n: int, fn: Callable, cells: Sequence, inject: bool,
             timeout: Optional[float]) -> "WorkerPools":
        """Serve one sweep on ``n`` slots; no pool is forked yet."""
        self.pools += [None] * (n - len(self.pools))
        self.size, self.deadline = n, timeout
        self._sweep = (fn, cells, inject, os.environ.get(faults.FAULTS_ENV))
        return self

    def start(self, worker: int, assignment) -> bool:
        fn, cells, inject, fault_spec = self._sweep
        try:
            if self.pools[worker] is None:
                self.pools[worker] = _new_pool()
            self.futures[worker] = self.pools[worker].submit(
                _pool_cell, fn, cells[assignment.cell], assignment.cell,
                assignment.attempt, inject, assignment.shard, fault_spec)
        except (BrokenProcessPool, OSError, RuntimeError):
            self.kill(worker)
            return False
        return True

    def wait(self, until: Optional[float]) -> List:
        timeout = (None if until is None
                   else max(0.0, until - time.monotonic()))
        finished, _ = wait(self.futures.values(), timeout=timeout,
                           return_when=FIRST_COMPLETED)
        ended = []
        for worker, future in sorted(self.futures.items()):
            if future not in finished:
                continue
            del self.futures[worker]
            exc = future.exception()
            if exc is None:
                ended.append((worker, "done", future.result()))
            else:
                kind = ("crash" if isinstance(exc, BrokenProcessPool)
                        else "error")
                ended.append((worker, kind, repr(exc)))
        return ended

    def kill(self, worker: int) -> None:
        _terminate_pool(self.pools[worker])
        self.pools[worker] = None
        self.futures.pop(worker, None)

    def close(self) -> None:
        """Shut every pool down, killing any worker still mid-cell.

        Idle workers exit cleanly.  A busy one is left only by an
        interrupted sweep, and waiting for it could block for good.
        """
        pools, self.pools = self.pools, []
        for worker, pool in enumerate(pools):
            if worker in self.futures:
                _terminate_pool(pool)
            elif pool is not None:
                pool.shutdown(wait=True)
        self.futures.clear()


# ----------------------------------------------------------------------
# The resilient executor
# ----------------------------------------------------------------------

def run_resilient(fn: Callable, cells, jobs: Optional[int] = None,
                  warm: Optional[Callable[[Sequence], None]] = None,
                  label: Optional[str] = None,
                  inject_faults: bool = True,
                  pools: Optional[WorkerPools] = None) -> SweepResult:
    """Order-preserving resilient map of ``fn`` over ``cells``.

    Semantics match :func:`repro.runtime.executor.execute` — results in
    cell order, parallel bit-identical to serial — plus the recovery
    behaviour documented in the module docstring.  Raises
    :class:`SweepError` when a cell fails after exhausting its retries;
    completed cells stay journaled so a rerun resumes.

    The worker count is ``min(jobs, pending cells)``; the cells are
    partitioned into one shard per worker and dispatched by
    :func:`repro.runtime.shard.run_sharded_loop`.  One worker runs
    in-process, so a serial sweep needs no picklable work and spawns no
    process.  The worker count only moves wall-clock, never numbers.
    ``pools`` keeps the worker processes alive past this sweep (see
    :class:`WorkerPools`); without it the sweep owns its own.
    """
    from . import shard
    from .executor import n_jobs, unpicklable_reason

    cells = list(cells)
    timeout = cell_timeout()
    retries = retry_limit()
    resume = resume_enabled()
    cache.max_cache_bytes()  # validate eagerly, before any simulation
    profiling = profile.enabled()
    profile_base = profile.snapshot() if profiling else None
    faults_base = profile.minor_faults() if profiling else 0
    if inject_faults:
        faults.validate()

    jobs = n_jobs() if jobs is None else jobs
    report = SweepReport(label=label, n_cells=len(cells), jobs=jobs,
                         outcomes=[CellOutcome(i)
                                   for i in range(len(cells))])
    results: List = [None] * len(cells)

    journal = Journal.open(label, fn, cells)
    resumed = journal.load() if journal is not None and resume else {}
    for index, value in resumed.items():
        results[index] = value
        report.outcomes[index].resumed = True

    pending = [i for i in range(len(cells)) if i not in resumed]
    workers = max(1, min(jobs, len(pending)))

    try:
        if workers > 1:
            reason = unpicklable_reason(fn, cells)
            if reason is not None:
                warnings.warn(
                    f"sweep {label or '<unlabeled>'} falls back to "
                    f"serial execution: {reason}",
                    RuntimeWarning, stacklevel=3)
                workers = 1
        if workers > 1 and warm is not None:
            try:
                warm(cells)
            except Exception as exc:
                warnings.warn(
                    f"sweep warm-up failed ({exc!r}); cells will "
                    f"compute their own inputs", RuntimeWarning,
                    stacklevel=3)
        shard.run_sharded_loop(fn, cells, pending, results, report,
                               shard.partition(cells, workers), workers,
                               retries, timeout, inject_faults, journal,
                               pools)
    finally:
        if profiling:
            report.phase_seconds = profile.delta_since(profile_base)
            report.minflt = profile.minor_faults() - faults_base
        _reports.append(report)
        if label is not None:
            try:
                cache.evict()
            except (OSError, ValueError):
                pass

    if report.failed_cells:
        raise SweepError(report)
    if journal is not None:
        journal.discard()
    return SweepResult(results=results, report=report)
