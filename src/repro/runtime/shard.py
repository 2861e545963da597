"""Sweep scheduling: partitioning, work stealing, the one dispatch loop.

Every sweep of :func:`repro.runtime.resilience.run_resilient` runs
through this module, whatever its worker count.  The sweep's cells are
first *partitioned* into one shard per worker (:func:`partition`): a
deterministic longest-processing-time greedy over per-cell cost
estimates (uniform when none are known, which deals cells round-robin),
so shard loads stay balanced when cell costs are skewed.

:class:`ShardScheduler` is the *pure* decision core, with an injected
clock and no I/O.  Each worker drains its *home* shards
(``shard % n_workers == worker``) in FIFO order and, when those are
empty, **steals from the longest remaining queue** (ties to the lowest
shard id) so one straggler shard cannot serialize the sweep.  Every
steal is recorded with a queue-depth snapshot, which is how the sim
asserts the steal policy as an invariant rather than trusting it.

:func:`drive` is the only loop that dispatches its cells: it fills idle
workers, waits, judges each attempt, kills a worker past its deadline,
and once kills pass the respawn budget hands the cells in flight back
and finishes on the in-process worker.  It runs on a worker set:
:class:`InProcessWorker` for one worker (no deadline, injected faults
raise), :class:`ProcessSlots` for two or more (the single-worker pools
of a :class:`~repro.runtime.resilience.WorkerPools`, the sweep's own or
its caller's), and the seeded virtual workers of
:mod:`repro.runtime.sim` — so the scheduler battery drives the loop real
sweeps run, respawn budget and serial degrade included.  Journaled
sweeps checkpoint every cell as ``cell-<i>.pkl`` keyed by *global* cell
index, so a resume may use a different worker count and still merge
bit-exact.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import (Any, Callable, Deque, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from . import faults
from . import resilience as res
from .resilience import FAILED, WorkerPools

#: Scheduler verdicts returned by :meth:`ShardScheduler.fail`.
RETRY = "retry"
GAVE_UP = "gave-up"


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardPlan:
    """A fixed cell->shard assignment for one sweep."""

    n_shards: int
    assignment: Tuple[int, ...]   #: shard id per global cell index

    @property
    def n_cells(self) -> int:
        return len(self.assignment)

    def counts(self) -> List[int]:
        out = [0] * self.n_shards
        for s in self.assignment:
            out[s] += 1
        return out


def partition(cells: Sequence, n_shards: int,
              costs: Optional[Sequence[float]] = None) -> ShardPlan:
    """Assign every cell to a shard, deterministically.

    Longest-processing-time greedy: heaviest cell first, onto the
    least-loaded shard (ties to the lowest id).  ``costs`` are per-cell
    cost estimates, same length as ``cells``; without them every cell
    weighs the same and cells are dealt round-robin.  The shard count is
    clamped to the cell count so no shard starts empty.
    """
    n = len(cells)
    if n == 0:
        return ShardPlan(n_shards=1, assignment=())
    n_shards = max(1, min(int(n_shards), n))
    weights = ([float(c) for c in costs] if costs is not None
               else [1.0] * n)
    if len(weights) != n:
        raise ValueError(
            f"costs length {len(weights)} != cell count {n}")
    order = sorted(range(n), key=lambda i: (-weights[i], i))
    loads = [0.0] * n_shards
    assignment = [0] * n
    for i in order:
        s = min(range(n_shards), key=lambda k: (loads[k], k))
        assignment[i] = s
        loads[s] += weights[i]
    return ShardPlan(n_shards=n_shards, assignment=tuple(assignment))


# ----------------------------------------------------------------------
# The pure scheduler core
# ----------------------------------------------------------------------

def home_shards(worker: int, n_shards: int, n_workers: int
                ) -> Tuple[int, ...]:
    """Shards worker ``worker`` owns: ``shard % n_workers == worker``."""
    return tuple(s for s in range(n_shards) if s % n_workers == worker)


@dataclass(frozen=True)
class Assignment:
    """One cell handed to one worker for one attempt."""

    cell: int
    shard: int
    worker: int
    attempt: int
    stolen: bool


@dataclass(frozen=True)
class StealRecord:
    """Audit record of one steal, with the queue depths that justified it."""

    worker: int
    cell: int
    shard: int                 #: victim shard the cell was taken from
    depths: Tuple[int, ...]    #: per-shard queue depth at steal time


class ShardStateError(RuntimeError):
    """The scheduler was driven through an impossible transition."""


class ShardScheduler:
    """Work-stealing dispatch over a fixed :class:`ShardPlan`.

    Pure decision logic: no processes, no sleeping, no wall clock — time
    enters only through the injected ``clock`` callable, which is how
    the discrete-event testbed (:mod:`repro.runtime.sim`) runs this
    exact class under a virtual clock.  The scheduler owns per-shard
    FIFO queues, the retry/backoff bookkeeping of the ``outcomes`` it is
    given, and the steal audit trail; :func:`drive` owns execution.

    Dispatch order is deterministic given the plan, the pending set and
    the sequence of ``acquire``/``complete``/``fail`` calls: home shards
    are scanned in ascending id, steals take from the longest queue with
    ties to the lowest shard id, and deferred retries re-enter their
    home queue in ``(ready_at, cell)`` order.
    """

    def __init__(self, plan: ShardPlan, pending: Sequence[int],
                 n_workers: int, retries: int,
                 clock: Callable[[], float],
                 outcomes: Sequence,
                 backoff: Optional[Callable[[int], float]] = None):
        self.plan = plan
        self.n_workers = max(1, n_workers)
        self.retries = retries
        self.clock = clock
        self.outcomes = outcomes
        self.backoff = backoff if backoff is not None else (lambda _: 0.0)
        self._cells = set(pending)
        self._queues: List[Deque[int]] = [deque()
                                          for _ in range(plan.n_shards)]
        for index in sorted(self._cells):
            self._queues[plan.assignment[index]].append(index)
        #: (ready_at, cell) retries deferred for backoff.
        self._waiting: List[Tuple[float, int]] = []
        self._inflight: Dict[int, Assignment] = {}
        self._completed: set = set()
        self._failed: set = set()
        self.steals: List[StealRecord] = []

    # -- queue maintenance ---------------------------------------------

    def _promote_ripe(self) -> None:
        """Move retries whose backoff has elapsed back into their queue."""
        if not self._waiting:
            return
        now = self.clock()
        ripe = sorted((r, c) for r, c in self._waiting if r <= now)
        if not ripe:
            return
        self._waiting = [(r, c) for r, c in self._waiting if r > now]
        for _, cell in ripe:
            self._queues[self.plan.assignment[cell]].append(cell)

    def home_shards(self, worker: int) -> Tuple[int, ...]:
        return home_shards(worker % self.n_workers, self.plan.n_shards,
                           self.n_workers)

    # -- worker protocol -----------------------------------------------

    def acquire(self, worker: int) -> Optional[Assignment]:
        """Next cell for ``worker``, or ``None`` when nothing is ready.

        Home shards first (ascending id); otherwise steal from the
        longest queue, recording the decision.  ``None`` does not mean
        the sweep is finished — retries may still be backing off and
        other workers may still be running (:meth:`next_ready_at`,
        :attr:`finished`).
        """
        if worker in self._inflight:
            raise ShardStateError(
                f"worker {worker} acquired twice without completing")
        self._promote_ripe()
        homes = self.home_shards(worker)
        chosen = next((s for s in homes if self._queues[s]), None)
        stolen = False
        if chosen is None:
            depths = tuple(len(q) for q in self._queues)
            deepest = max(depths, default=0)
            if deepest == 0:
                return None
            chosen = depths.index(deepest)
            stolen = chosen not in homes
            if stolen:
                self.steals.append(StealRecord(
                    worker=worker, cell=self._queues[chosen][0],
                    shard=chosen, depths=depths))
        cell = self._queues[chosen].popleft()
        outcome = self.outcomes[cell]
        attempt = outcome.attempts
        outcome.attempts += 1
        outcome.shard = self.plan.assignment[cell]
        if stolen:
            outcome.stolen = True
        assignment = Assignment(cell=cell,
                                shard=self.plan.assignment[cell],
                                worker=worker, attempt=attempt,
                                stolen=stolen)
        self._inflight[worker] = assignment
        return assignment

    def unacquire(self, worker: int) -> None:
        """Hand a cell back without a verdict, its attempt uncounted.

        For an attempt that never ran (its worker failed to start) or
        was cut off unjudged (the pools were given up mid-cell).  The
        cell returns to the *front* of its home queue, preserving FIFO
        order, so the attempt budget counts only judged attempts.
        """
        assignment = self._pop_inflight(worker)
        self.outcomes[assignment.cell].attempts -= 1
        self._queues[assignment.shard].appendleft(assignment.cell)

    def complete(self, worker: int) -> Assignment:
        """Record ``worker``'s in-flight cell as done, exactly once."""
        assignment = self._pop_inflight(worker)
        if assignment.cell in self._completed:
            raise ShardStateError(
                f"cell {assignment.cell} completed twice")
        self._completed.add(assignment.cell)
        return assignment

    def fail(self, worker: int, error: str,
             timed_out: bool = False) -> str:
        """Record a failed attempt; schedule a retry or give the cell up.

        Returns :data:`RETRY` when the cell will re-run after backoff,
        :data:`GAVE_UP` when its retry budget is exhausted (the outcome
        is marked failed with ``error``).
        """
        assignment = self._pop_inflight(worker)
        outcome = self.outcomes[assignment.cell]
        if timed_out:
            outcome.timeouts += 1
        if outcome.attempts <= self.retries:
            ready_at = self.clock() + self.backoff(outcome.attempts - 1)
            self._waiting.append((ready_at, assignment.cell))
            return RETRY
        outcome.status = FAILED
        outcome.error = error
        self._failed.add(assignment.cell)
        return GAVE_UP

    def _pop_inflight(self, worker: int) -> Assignment:
        assignment = self._inflight.pop(worker, None)
        if assignment is None:
            raise ShardStateError(
                f"worker {worker} has no in-flight cell")
        return assignment

    # -- progress ------------------------------------------------------

    def next_ready_at(self) -> Optional[float]:
        """Earliest backoff expiry among deferred retries, or ``None``."""
        if not self._waiting:
            return None
        return min(r for r, _ in self._waiting)

    @property
    def inflight(self) -> Mapping[int, Assignment]:
        """Live read-only view: worker -> its in-flight assignment."""
        return MappingProxyType(self._inflight)

    @property
    def completed(self) -> List[int]:
        return sorted(self._completed)

    @property
    def finished(self) -> bool:
        """Every pending cell reached a terminal state, nothing running."""
        return (not self._inflight
                and len(self._completed) + len(self._failed)
                == len(self._cells))

    def remaining(self) -> List[int]:
        """Cells not yet terminal (queued, backing off, or in flight)."""
        return sorted(self._cells - self._completed - self._failed)

    def shard_progress(self) -> Dict[int, int]:
        """Completed-cell count per shard (only shards with progress)."""
        out: Dict[int, int] = {}
        for cell in sorted(self._completed):
            shard = self.plan.assignment[cell]
            out[shard] = out.get(shard, 0) + 1
        return out


# ----------------------------------------------------------------------
# Report vocabulary
# ----------------------------------------------------------------------

@dataclass
class ShardInfo:
    """Scheduler account attached to every ``SweepReport``."""

    n_shards: int
    n_workers: int
    steals: int = 0
    #: Completed cells per shard id (filled as the sweep finishes).
    cells_done: Dict[int, int] = field(default_factory=dict)

    def describe(self) -> str:
        return (f"{self.n_shards} shard(s) over {self.n_workers} "
                f"worker(s), {self.steals} steal(s)")


# ----------------------------------------------------------------------
# The one dispatch loop and its worker sets
# ----------------------------------------------------------------------

def _sleep_until(until: float) -> None:
    time.sleep(max(0.0, until - time.monotonic()) + 0.001)


class InProcessWorker:
    """Worker 0 in this process, never killed: nothing preempts it.

    ``run(assignment)`` executes the cell when the loop waits.
    """

    size, deadline, down = 1, None, frozenset()

    def __init__(self, run: Callable[[Assignment], Any]):
        self.run = run
        self._started: Optional[Assignment] = None

    def start(self, worker: int, assignment: Assignment) -> bool:
        self._started = assignment
        return True

    def wait(self, until: Optional[float]) -> List[Tuple[int, str, Any]]:
        try:
            return [(0, "done", self.run(self._started))]
        except Exception as exc:
            return [(0, "error", repr(exc))]


def drive(scheduler: ShardScheduler, workers, serial, report,
          results: List, record: Optional[Callable] = None,
          log: Optional[Callable] = None,
          sleep: Callable[[float], None] = _sleep_until) -> None:
    """Run ``scheduler`` to the end: the one loop that dispatches cells.

    Each turn fills idle workers, waits for the next completion, crash
    or deadline, and judges what ended; when nothing runs and no worker
    is down, it calls ``sleep`` until a retry's backoff ends instead.
    Kills and failed starts count in ``report.pool_respawns``; past
    ``max(POOL_RESPAWN_BUDGET, 2 * workers.size)`` the cells in flight
    go back unjudged and ``serial`` finishes
    (``report.degraded_serial``).  ``log(kind, assignment)`` sees every
    sim trace event but ``respawn``.

    A worker set has ``size`` workers, a per-attempt ``deadline``
    (``None``: nothing preempts), the workers ``down`` that cannot start
    yet, ``start(worker, assignment)`` (``False``: it failed to start),
    ``kill(worker)``, and ``wait(until)``, which blocks until an attempt
    ends or the clock reaches ``until`` and returns ``(worker, kind,
    payload)`` ends: ``done`` and the value, or ``error`` (the worker
    lives) or ``crash`` and the error text.
    """
    budget = max(res.POOL_RESPAWN_BUDGET, 2 * workers.size)
    note = log or (lambda _kind, _assignment: None)
    running = scheduler.inflight
    deadlines: Dict[int, float] = {}

    def failed(worker: int, kind: str, error: str) -> None:
        assignment = running[worker]
        deadlines.pop(worker, None)
        note(kind, assignment)
        if kind != "error":
            report.pool_respawns += 1
            workers.kill(worker)
        if scheduler.fail(worker, error,
                          timed_out=kind == "timeout") == GAVE_UP:
            note("fail", assignment)

    while not scheduler.finished:
        if workers is not serial and report.pool_respawns > budget:
            for worker in range(workers.size):
                workers.kill(worker)
                if worker in running:
                    scheduler.unacquire(worker)
            deadlines.clear()
            report.degraded_serial = True
            note("degrade", None)
            workers = serial

        for worker in range(workers.size):
            if worker in running or worker in workers.down:
                continue
            assignment = scheduler.acquire(worker)
            if assignment is None:
                continue
            if not workers.start(worker, assignment):
                scheduler.unacquire(worker)
                report.pool_respawns += 1
                continue
            note("assign", assignment)
            if workers.deadline is not None:
                deadlines[worker] = scheduler.clock() + workers.deadline

        if not running and not workers.down:
            ready_at = scheduler.next_ready_at()
            if ready_at is not None:
                sleep(ready_at)
            continue  # else only failed starts: check the budget, refill
        for worker, kind, payload in workers.wait(
                min(deadlines.values(), default=None)):
            if kind != "done":
                failed(worker, kind, payload)
                continue
            deadlines.pop(worker, None)
            assignment = scheduler.complete(worker)
            results[assignment.cell] = payload
            scheduler.outcomes[assignment.cell].finish()
            if record is not None:
                record(assignment.cell, payload)
            note("done", assignment)
        now = scheduler.clock()
        for worker in sorted(w for w, at in deadlines.items() if at <= now):
            failed(worker, "timeout",
                   f"cell exceeded {workers.deadline}s deadline")


def run_sharded_loop(fn: Callable, cells: Sequence,
                     pending: Sequence[int], results: List, report,
                     plan: ShardPlan, n_workers: int, retries: int,
                     timeout: Optional[float], inject: bool,
                     journal, pools: Optional[WorkerPools] = None,
                     ) -> None:
    """Run every pending cell through :func:`drive`.

    One worker runs in-process; two or more on the process pools of
    ``pools`` (left running), or of the sweep's own, shut down at the
    end.  Results land in ``results`` and the ``journal``, failures on
    ``report.outcomes``, and the schedule in ``report.shards``.
    """
    info = report.shards = ShardInfo(n_shards=plan.n_shards,
                                     n_workers=n_workers)
    scheduler = ShardScheduler(plan, pending, n_workers, retries,
                               clock=time.monotonic,
                               outcomes=report.outcomes,
                               backoff=res._backoff)

    def run_cell(assignment: Assignment) -> Any:
        if inject:  # in-process, a crash or hang fault raises
            faults.apply_cell_faults(assignment.cell, assignment.attempt,
                                     isolated=False)
        return fn(cells[assignment.cell])

    serial = InProcessWorker(run_cell)
    owned = n_workers > 1 and pools is None
    if owned:
        pools = WorkerPools()
    try:
        workers = serial if n_workers == 1 else pools.bind(
            n_workers, fn, cells, inject, timeout)
        drive(scheduler, workers, serial, report, results,
              journal.record if journal is not None else None)
    finally:
        if owned:
            pools.close()
    if report.degraded_serial:
        warnings.warn(
            f"sweep {report.label or '<unlabeled>'} degraded to serial "
            f"execution: {report.pool_respawns} worker-pool failures",
            RuntimeWarning, stacklevel=3)
    info.steals = len(scheduler.steals)
    info.cells_done = scheduler.shard_progress()
