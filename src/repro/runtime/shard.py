"""Sweep scheduling: partitioning, work stealing, the sweep driver.

Every sweep of :func:`repro.runtime.resilience.run_resilient` runs
through this module, whatever its worker count.  The sweep's cells are
first *partitioned* into one shard per worker (:func:`partition`): a
deterministic longest-processing-time greedy over per-cell cost
estimates (uniform when none are known, which deals cells round-robin),
so shard loads stay balanced when cell costs are skewed.

Execution then goes through :class:`ShardScheduler` — a *pure* decision
core with an injected clock and no I/O, shared verbatim between the real
driver (:func:`run_sharded_loop`) and the discrete-event testbed of
:mod:`repro.runtime.sim`.  Each worker drains its *home* shards
(``shard % n_workers == worker``) in FIFO order and, when those are
empty, **steals from the longest remaining queue** (ties to the lowest
shard id) so one straggler shard cannot serialize the sweep.  Every
steal is recorded with a queue-depth snapshot, which is how the sim
asserts the steal policy as an invariant rather than trusting it.

The driver runs one worker in-process (no pool, no deadline, first
attempts in pending order) and two or more on the single-worker pools of
:mod:`repro.runtime.resilience`, with the same retry budget, per-cell
deadline kills and pool-respawn budget.  Those pools belong to a
:class:`~repro.runtime.resilience.WorkerPools` holder: the sweep's own
(shut down when it ends) or its caller's (left running for the next
sweep).  When pools keep dying the same scheduler carries on with the
in-process worker, so attempts and retries are accounted in one place.
Journaled sweeps checkpoint every cell as ``cell-<i>.pkl`` keyed by
*global* cell index, so a resume may use a different worker count and
still merge bit-exact.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from . import faults
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
# The pure scheduler core (shared by the process driver and the sim)
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
    given, and the steal audit trail; callers own execution.

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
        """Hand a cell back unrun (e.g. the worker pool failed to spawn).

        The attempt is uncounted and the cell returns to the *front* of
        its home queue, preserving FIFO order.
        """
        assignment = self._pop_inflight(worker)
        self.outcomes[assignment.cell].attempts -= 1
        self._queues[assignment.shard].appendleft(assignment.cell)

    def abandon(self, worker: int) -> Assignment:
        """Requeue a worker's in-flight cell without judging the attempt.

        The degrade path: execution was interrupted mid-cell, so the
        attempt stays counted (it was real work) but the cell goes back
        to its home queue for the in-process worker instead of burning
        a retry verdict here.
        """
        assignment = self._pop_inflight(worker)
        self._queues[assignment.shard].append(assignment.cell)
        return assignment

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

    def has_ready(self) -> bool:
        """Whether any queue holds a cell ready to dispatch right now."""
        self._promote_ripe()
        return any(self._queues)

    @property
    def inflight(self) -> Dict[int, Assignment]:
        return dict(self._inflight)

    @property
    def completed(self) -> List[int]:
        return sorted(self._completed)

    @property
    def failed(self) -> List[int]:
        return sorted(self._failed)

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
# The real driver
# ----------------------------------------------------------------------

def run_sharded_loop(fn: Callable, cells: Sequence,
                     pending: Sequence[int], results: List, report,
                     plan: ShardPlan, n_workers: int, retries: int,
                     timeout: Optional[float], inject: bool,
                     journal, pools: Optional[WorkerPools] = None,
                     ) -> None:
    """Drive :class:`ShardScheduler` until every pending cell is terminal.

    One worker runs in-process.  Two or more run on single-worker
    process pools (:func:`_drive_pools`); if those degrade, the same
    scheduler finishes the sweep on the in-process worker.  Successful
    cells land in ``results`` and the ``journal``; failures are marked
    on ``report.outcomes`` by the scheduler, and the schedule itself is
    recorded as ``report.shards``.  ``pools`` is the caller's
    :class:`~repro.runtime.resilience.WorkerPools`, left running at the
    end; without one the sweep creates and shuts down its own.
    """
    from . import resilience as res

    info = report.shards = ShardInfo(n_shards=plan.n_shards,
                                     n_workers=n_workers)
    scheduler = ShardScheduler(plan, pending, n_workers, retries,
                               clock=time.monotonic,
                               outcomes=report.outcomes,
                               backoff=res._backoff)

    def succeed(worker: int, value) -> None:
        index = scheduler.complete(worker).cell
        results[index] = value
        report.outcomes[index].finish()
        if journal is not None:
            journal.record(index, value)

    if n_workers > 1:
        owned = pools is None
        if owned:
            pools = WorkerPools()
        try:
            why = _drive_pools(scheduler, fn, cells, report, timeout,
                               inject, succeed, pools.take(n_workers))
        finally:
            if owned:
                pools.close()
        if why is not None:
            report.degraded_serial = True
            warnings.warn(
                f"sweep {report.label or '<unlabeled>'} degraded to "
                f"serial execution: {why}", RuntimeWarning, stacklevel=3)
    _drive_in_process(scheduler, fn, cells, inject, succeed)
    info.steals = len(scheduler.steals)
    info.cells_done = scheduler.shard_progress()


def _drive_in_process(scheduler: ShardScheduler, fn: Callable,
                      cells: Sequence, inject: bool,
                      succeed: Callable) -> None:
    """Run every remaining cell in this process, as worker 0.

    There is no isolation boundary here: injected ``crash``/``hang``
    faults degrade to raised exceptions, and no deadline applies.
    """
    while not scheduler.finished:
        assignment = scheduler.acquire(0)
        if assignment is None:
            ready_at = scheduler.next_ready_at()
            if ready_at is None:
                raise ShardStateError(
                    f"no runnable cell, yet cells "
                    f"{scheduler.remaining()} are unfinished")
            time.sleep(max(0.0, ready_at - time.monotonic()))
            continue
        try:
            if inject:
                faults.apply_cell_faults(assignment.cell,
                                         assignment.attempt,
                                         isolated=False)
            value = fn(cells[assignment.cell])
        except Exception as exc:
            scheduler.fail(0, repr(exc))
            continue
        succeed(0, value)


def _drive_pools(scheduler: ShardScheduler, fn: Callable,
                 cells: Sequence, report, timeout: Optional[float],
                 inject: bool, succeed: Callable,
                 slots: List) -> Optional[str]:
    """Run the scheduler's workers on the single-worker pools of ``slots``.

    Live pools are reused and left running; a missing one forks when
    its slot is first handed a cell.  Returns ``None`` when every cell
    is terminal, or the reason the pools were abandoned after too many
    failures; abandoned in-flight cells go back to their queues for the
    in-process worker.
    """
    from . import resilience as res

    budget = max(res.POOL_RESPAWN_BUDGET, 2 * len(slots))
    fault_spec = os.environ.get(faults.FAULTS_ENV)

    while not scheduler.finished:
        if report.pool_respawns > budget:
            for worker, slot in enumerate(slots):
                res._terminate_pool(slot.pool)
                if slot.future is not None:
                    scheduler.abandon(worker)
                slot.pool, slot.future = None, None
            return f"{report.pool_respawns} worker-pool failures"

        # Fill idle worker slots from the scheduler.
        for worker, slot in enumerate(slots):
            if slot.future is not None:
                continue
            assignment = scheduler.acquire(worker)
            if assignment is None:
                continue
            try:
                if slot.pool is None:
                    slot.pool = res._new_pool()
                slot.future = slot.pool.submit(
                    res._pool_cell, fn, cells[assignment.cell],
                    assignment.cell, assignment.attempt, inject,
                    assignment.shard, fault_spec)
            except (BrokenProcessPool, OSError, RuntimeError):
                scheduler.unacquire(worker)
                report.pool_respawns += 1
                res._terminate_pool(slot.pool)
                slot.pool, slot.future = None, None
                continue
            slot.deadline = (time.monotonic() + timeout
                             if timeout is not None else None)

        busy = [(w, s) for w, s in enumerate(slots)
                if s.future is not None]
        if not busy:
            if scheduler.has_ready():
                continue  # a cell was handed back; redispatch
            ready_at = scheduler.next_ready_at()
            if ready_at is None:
                break  # nothing queued, waiting or running
            time.sleep(max(0.0, ready_at - time.monotonic()) + 0.001)
            continue

        wait_for = None
        deadlines = [slot.deadline for _, slot in busy
                     if slot.deadline is not None]
        if deadlines:
            wait_for = max(0.0, min(deadlines) - time.monotonic())
        next_retry = scheduler.next_ready_at()
        if next_retry is not None and len(busy) < len(slots):
            soonest = max(0.0, next_retry - time.monotonic())
            wait_for = soonest if wait_for is None \
                else min(wait_for, soonest)
        finished, _ = wait([slot.future for _, slot in busy],
                           timeout=wait_for,
                           return_when=FIRST_COMPLETED)

        now = time.monotonic()
        for worker, slot in busy:
            if slot.future in finished:
                exc = slot.future.exception()
                if exc is None:
                    succeed(worker, slot.future.result())
                else:
                    if isinstance(exc, BrokenProcessPool):
                        report.pool_respawns += 1
                        res._terminate_pool(slot.pool)
                        slot.pool = None
                    scheduler.fail(worker, repr(exc))
                slot.future = None
            elif slot.deadline is not None and now >= slot.deadline:
                # Hung worker: kill it; the slot's pool respawns lazily.
                report.pool_respawns += 1
                res._terminate_pool(slot.pool)
                slot.pool, slot.future = None, None
                scheduler.fail(worker,
                               f"cell exceeded {timeout}s deadline",
                               timed_out=True)
    return None
