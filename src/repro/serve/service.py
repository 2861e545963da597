"""The asyncio prediction service: admission, batching, degradation.

:class:`PredictionService` accepts :class:`ServeRequest` cells, batches
them through the resilient sweep executor of
:mod:`repro.runtime.resilience` into the vectorized engines, and
resolves every request with a typed :class:`ServeResponse`.  The
resilience envelope, in the order a request meets it:

* **Content-addressed result store** — the request's content digest is
  computed once and keys canonical payloads with verified reads
  (:mod:`repro.serve.store`); a hit serves with that one digest and
  one verified read, without touching a worker.
* **Single-flight dedup** — concurrent identical requests (same content
  digest) ride one computation; followers get the leader's response
  flagged ``deduped``.
* **Validation** — only a request that neither the store nor an
  in-flight leader knows is validated (a typed ``InvalidRequest``
  failure otherwise).  Both hold only requests that passed validation,
  and the digest pins the request: its canonical JSON encodes every
  field, and :class:`ServeRequest` holds only JSON scalars of exact
  types.
* **Bounded admission queue** — a full queue rejects with a typed
  :class:`ServiceOverload` carrying a retry-after hint derived from the
  queue depth and a moving estimate of per-request service time.
* **Per-request deadlines** — a request expired in the queue fails
  typed (``DeadlineExceeded``); the tightest remaining deadline of a
  batch propagates into ``REPRO_CELL_TIMEOUT`` so a hung worker is
  killed by the executor's real deadline machinery.
* **Circuit breaker per workload family** — consecutive fast-path
  failures trip it; while open the family is served from the store or
  shed, and after a cooldown a single probe half-opens it.
* **Degradation ladder** — fast engine in pooled workers → scalar
  engine in-process → cached-only → shed.  The rung that produced each
  answer is recorded in the response metadata.

Faults are honoured deterministically: the service snapshots
``REPRO_FAULT_SPEC`` at construction, translates request-targeted
``crash``/``hang`` directives into per-batch cell faults (so worker
death and deadline kills exercise the executor's *real* recovery
paths), and applies ``fail`` directives inside the worker body as typed
failures.

The fast rung's worker processes live as long as the service: one
:class:`~repro.runtime.resilience.WorkerPools` holder serves every
batch, so a worker keeps its loaded traces and compiled arrays from one
batch to the next, and :meth:`PredictionService.stop` shuts it down.
Pools are forked lazily at the first pooled batch, which fixes the
worker environment at that moment; the batch's translated fault spec is
not part of it, because it travels with each cell instead.  A crash, a
deadline kill or the respawn budget still replaces a slot's worker.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core import engine_mode
from ..runtime import faults, resilience
from . import breaker as breaker_mod
from .requests import (
    FAILED,
    RUNG_CACHED,
    RUNG_FAST,
    RUNG_SCALAR,
    RUNG_SHED,
    SERVED,
    SHED,
    RequestError,
    ServeRequest,
    ServeResponse,
    ServiceOverload,
    execute_request_cell,
    stats_payload,
)
from .store import ResultStore

#: Floor for the cell deadline propagated to workers, so a nearly
#: expired batch still gets a meaningful execution window.
MIN_CELL_TIMEOUT = 0.05

#: Initial per-request service-time estimate (seconds) seeding the EMA
#: behind retry-after hints.
INITIAL_SERVICE_ESTIMATE = 0.05

#: Default bound on the in-memory result store.
DEFAULT_STORE_ENTRIES = 4096

#: Default service settings; the default ``deadline`` is None (off).
DEFAULT_QUEUE_LIMIT = 256
DEFAULT_BATCH_LIMIT = 32
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_COOLDOWN = 5.0


def check_settings(queue_limit: int, batch_limit: int,
                   deadline: Optional[float], breaker_threshold: int,
                   breaker_cooldown: float) -> None:
    """Raise ``ValueError`` naming the first invalid service setting.

    Each message names the constructor argument and its
    ``python -m repro.serve`` flag.  A ``deadline`` of ``None`` is off.
    """
    for name, flag, count in (
            ("queue_limit", "--queue", queue_limit),
            ("batch_limit", "--batch", batch_limit),
            ("breaker_threshold", "--breaker-threshold",
             breaker_threshold)):
        if count < 1:
            raise ValueError(f"{name} ({flag}) must be >= 1, got {count}")
    for name, flag, seconds in (
            ("deadline", "--deadline", deadline),
            ("breaker_cooldown", "--breaker-cooldown", breaker_cooldown)):
        if seconds is not None and not seconds > 0:
            raise ValueError(f"{name} ({flag}) must be a positive number "
                             f"of seconds, got {seconds}")


@dataclass
class ServiceMetrics:
    """Counters describing everything the service did."""

    submitted: int = 0
    invalid: int = 0
    served_fast: int = 0
    served_scalar: int = 0
    served_cached: int = 0
    deduped: int = 0
    shed_overload: int = 0
    shed_breaker: int = 0
    shed_shutdown: int = 0
    expired: int = 0
    #: error_type -> count of typed failed responses.
    failed: Dict[str, int] = field(default_factory=dict)
    batches: int = 0
    degraded_batches: int = 0   #: batches rescued on the scalar rung
    cell_retries: int = 0
    cell_timeouts: int = 0
    pool_respawns: int = 0

    @property
    def served(self) -> int:
        return self.served_fast + self.served_scalar + self.served_cached

    @property
    def shed(self) -> int:
        return self.shed_overload + self.shed_breaker + self.shed_shutdown

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values()) + self.expired

    def record_failure(self, error_type: str) -> None:
        self.failed[error_type] = self.failed.get(error_type, 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["served"] = self.served
        data["shed"] = self.shed
        data["n_failed"] = self.n_failed
        return data


@dataclass
class _Pending:
    """One admitted request waiting for (or in) a batch."""

    request: ServeRequest
    digest: str
    future: "asyncio.Future[ServeResponse]"
    submitted: float
    deadline_at: Optional[float]
    probe: bool = False


class PredictionService:
    """Asyncio façade over the resilient sweep runtime.

    Construct, then ``await start()`` (or use ``async with``); submit
    requests with :meth:`submit`.  The constructor arguments are the
    whole configuration.  ``queue_limit``, ``batch_limit``,
    ``deadline`` (seconds; ``None`` is off), ``breaker_threshold`` and
    ``breaker_cooldown`` are also the ``python -m repro.serve`` flags;
    :func:`check_settings` rejects a bad one before anything starts.
    """

    def __init__(self, *, queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 batch_limit: int = DEFAULT_BATCH_LIMIT,
                 jobs: Optional[int] = None,
                 deadline: Optional[float] = None,
                 breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN,
                 store_entries: Optional[int] = None) -> None:
        from ..runtime.executor import n_jobs

        check_settings(queue_limit, batch_limit, deadline,
                       breaker_threshold, breaker_cooldown)
        self.queue_limit = queue_limit
        self.batch_limit = batch_limit
        self.default_deadline = deadline
        self._jobs = max(2, n_jobs()) if jobs is None else jobs
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        #: Fault plan snapshot: mid-campaign environment mutation cannot
        #: change which faults the service honours.
        self._fault_spec = faults.active()
        self.store = ResultStore(
            max_entries=(DEFAULT_STORE_ENTRIES if store_entries is None
                         else store_entries),
            fault_spec=self._fault_spec)
        self.metrics = ServiceMetrics()
        self.breakers: Dict[str, breaker_mod.CircuitBreaker] = {}
        self._queue: "asyncio.Queue[Optional[_Pending]]" = asyncio.Queue(
            maxsize=self.queue_limit)
        self._inflight: Dict[str, "asyncio.Future[ServeResponse]"] = {}
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        #: Fast-rung worker slots, reused by every batch until stop().
        self._pools = resilience.WorkerPools()
        self._running = False
        self._service_estimate = INITIAL_SERVICE_ESTIMATE

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatcher; idempotent."""
        if self._running:
            return
        self._running = True
        # One thread serializes all engine dispatch, so the scoped
        # environment overrides around each rung never overlap.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve")
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop())

    async def stop(self) -> None:
        """Drain the queue, stop the dispatcher, release the workers."""
        if not self._running:
            return
        self._running = False
        await self._queue.put(None)
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        while True:
            try:
                pending = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if pending is None:
                continue
            self.metrics.shed_shutdown += 1
            self._resolve(pending, self._response(
                pending, SHED, rung=RUNG_SHED,
                error_type="ServiceShutdown",
                error="service stopped before the request was batched"))
        if self._executor is not None:
            # The dispatcher is already drained, but shutting the worker
            # pools down and joining the dispatch thread both block — do
            # them off-loop so a slow engine call cannot stall the loop.
            executor, self._executor = self._executor, None
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(executor, self._pools.close)
            await loop.run_in_executor(None, executor.shutdown)

    async def __aenter__(self) -> "PredictionService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    async def submit(self, request: ServeRequest,
                     deadline: Optional[float] = None) -> ServeResponse:
        """Admit one request and await its typed response.

        Raises :class:`ServiceOverload` (with a retry-after hint) when
        the bounded admission queue is full — the only outcome that is
        an exception rather than a response, because an overloaded
        service must refuse *before* doing any work.
        """
        if not self._running:
            raise RuntimeError("PredictionService is not running; "
                               "use 'async with' or await start()")
        self.metrics.submitted += 1
        start = time.monotonic()
        digest = request.digest()

        hit = self.store.get(digest, request.workload)
        if hit is not None:
            self.metrics.served_cached += 1
            payload, checked = hit
            return ServeResponse(
                request_digest=digest, workload=request.workload,
                status=SERVED, rung=RUNG_CACHED, cache_hit=True,
                payload=payload, payload_digest=checked,
                latency_s=time.monotonic() - start)

        leader = self._inflight.get(digest)
        if leader is not None:
            response = await asyncio.shield(leader)
            self.metrics.deduped += 1
            return dataclasses.replace(
                response, deduped=True,
                latency_s=time.monotonic() - start)

        # Validated only now: the store and the in-flight table hold
        # validated requests alone, under the digest that pins them.
        try:
            request.validate()
        except RequestError as exc:
            self.metrics.invalid += 1
            self.metrics.record_failure("InvalidRequest")
            return ServeResponse(
                request_digest=digest, workload=request.workload,
                status=FAILED, error_type="InvalidRequest", error=str(exc),
                latency_s=time.monotonic() - start)

        if self._queue.full():
            self.metrics.shed_overload += 1
            raise ServiceOverload(retry_after=self._retry_after(),
                                  queue_depth=self._queue.qsize())

        effective = (self.default_deadline if deadline is None
                     else deadline)
        future: "asyncio.Future[ServeResponse]" = \
            asyncio.get_running_loop().create_future()
        self._inflight[digest] = future
        pending = _Pending(
            request=request, digest=digest, future=future,
            submitted=start,
            deadline_at=(start + effective
                         if effective is not None else None))
        self._queue.put_nowait(pending)
        return await asyncio.shield(future)

    def _retry_after(self) -> float:
        depth = self._queue.qsize()
        return max(MIN_CELL_TIMEOUT,
                   depth * self._service_estimate / max(1, self._jobs))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _breaker(self, family: str) -> breaker_mod.CircuitBreaker:
        found = self.breakers.get(family)
        if found is None:
            found = breaker_mod.CircuitBreaker(
                family, self._breaker_threshold, self._breaker_cooldown)
            self.breakers[family] = found
        return found

    def _response(self, pending: _Pending, status: str, *, rung: str = "",
                  cache_hit: bool = False, attempts: int = 0,
                  error_type: str = "", error: str = "",
                  retry_after: float = 0.0,
                  served: Optional[Tuple[Dict[str, Any], str]] = None,
                  ) -> ServeResponse:
        """``served`` is a ``(payload, payload digest)`` pair."""
        payload, checked = (None, "") if served is None else served
        return ServeResponse(
            request_digest=pending.digest,
            workload=pending.request.workload,
            status=status, rung=rung, cache_hit=cache_hit,
            attempts=attempts, error_type=error_type, error=error,
            retry_after=retry_after,
            latency_s=time.monotonic() - pending.submitted,
            payload=payload, payload_digest=checked)

    def _resolve(self, pending: _Pending,
                 response: ServeResponse) -> None:
        self._inflight.pop(pending.digest, None)
        if not pending.future.done():
            pending.future.set_result(response)

    async def _dispatch_loop(self) -> None:
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is None:
                break
            batch = [first]
            while len(batch) < self.batch_limit:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is None:
                    stopping = True
                    break
                batch.append(nxt)
            await self._process_batch(batch)

    async def _process_batch(self, batch: List[_Pending]) -> None:
        self.metrics.batches += 1
        now = time.monotonic()
        runnable: List[_Pending] = []
        for pending in batch:
            if pending.deadline_at is not None \
                    and now >= pending.deadline_at:
                self.metrics.expired += 1
                self._resolve(pending, self._response(
                    pending, FAILED, error_type="DeadlineExceeded",
                    error="deadline expired while queued"))
                continue
            # No store read here: a queued request is its digest's
            # in-flight leader, so nothing stores that digest before
            # this batch resolves it.
            guard = self._breaker(pending.request.workload)
            verdict = guard.admit()
            if verdict == breaker_mod.REJECT:
                # Cached-only mode was already exhausted at admission,
                # so the ladder's last rung for this family is a typed
                # shed.
                self.metrics.shed_breaker += 1
                self._resolve(pending, self._response(
                    pending, SHED, rung=RUNG_SHED,
                    error_type="BreakerOpen",
                    error=f"circuit breaker open for workload family "
                          f"{pending.request.workload!r}",
                    retry_after=max(guard.retry_after(),
                                    MIN_CELL_TIMEOUT)))
                continue
            pending.probe = verdict == breaker_mod.PROBE
            runnable.append(pending)
        if not runnable:
            return

        deadlines = [p.deadline_at - now for p in runnable
                     if p.deadline_at is not None]
        cell_timeout = (max(MIN_CELL_TIMEOUT, min(deadlines))
                        if deadlines else None)
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        results, report = await loop.run_in_executor(
            self._executor, self._run_rung0, runnable, cell_timeout)
        elapsed = time.monotonic() - started
        per_request = elapsed / len(runnable)
        self._service_estimate = (0.8 * self._service_estimate
                                  + 0.2 * per_request)
        self._absorb_report(report)

        scalar_work: List[Tuple[_Pending, int]] = []
        if results is None:
            # The executor dropped cells after every recovery path —
            # completed results are lost with it, so the whole batch
            # degrades to the in-process scalar rung.
            self.metrics.degraded_batches += 1
            for idx, pending in enumerate(runnable):
                outcome = report.outcomes[idx]
                if outcome.status == resilience.FAILED:
                    self._breaker(
                        pending.request.workload).record_failure()
                scalar_work.append((pending, max(1, outcome.attempts)))
        else:
            for idx, pending in enumerate(runnable):
                outcome = report.outcomes[idx]
                cell = results[idx]
                guard = self._breaker(pending.request.workload)
                if isinstance(cell, dict) and cell.get("ok"):
                    payload: Dict[str, Any] = cell["payload"]
                    checked = self.store.put(
                        pending.digest, pending.request.workload, payload)
                    guard.record_success()
                    self.metrics.served_fast += 1
                    self._resolve(pending, self._response(
                        pending, SERVED, rung=RUNG_FAST,
                        attempts=outcome.attempts,
                        served=(payload, checked)))
                else:
                    # Typed worker-side failure: the fast path is
                    # suspect for this family; rescue on the scalar
                    # rung with the next service attempt number.
                    guard.record_failure()
                    scalar_work.append((pending,
                                        max(1, outcome.attempts)))

        if not scalar_work:
            return
        scalar_results = await loop.run_in_executor(
            self._executor, self._run_scalar_batch, scalar_work)
        for (pending, attempt), cell in zip(scalar_work, scalar_results):
            if cell.get("ok"):
                payload = cell["payload"]
                checked = self.store.put(
                    pending.digest, pending.request.workload, payload)
                self.metrics.served_scalar += 1
                self._resolve(pending, self._response(
                    pending, SERVED, rung=RUNG_SCALAR,
                    attempts=attempt + 1, served=(payload, checked)))
            else:
                error_type = str(cell.get("error_type", "Exception"))
                self.metrics.record_failure(error_type)
                self._resolve(pending, self._response(
                    pending, FAILED, rung=RUNG_SCALAR,
                    attempts=attempt + 1, error_type=error_type,
                    error=str(cell.get("error", ""))))

    def _absorb_report(self, report: resilience.SweepReport) -> None:
        self.metrics.cell_retries += len(report.retried_cells)
        self.metrics.cell_timeouts += len(report.timed_out_cells)
        self.metrics.pool_respawns += report.pool_respawns

    # ------------------------------------------------------------------
    # Rungs (executor-thread side)
    # ------------------------------------------------------------------

    def _translated_spec(self, batch: List[_Pending]) -> Optional[str]:
        """Batch-scoped ``REPRO_FAULT_SPEC`` for the sweep workers.

        Request-targeted ``crash``/``hang`` directives become per-batch
        cell faults (positions are stable within one dispatch), so the
        executor's real respawn and deadline-kill machinery fires.
        ``fail:request`` and artifact-corruption directives pass
        through verbatim — they are applied by name inside the worker.
        Ambient ``cell``-targeted directives are dropped: sweep-cell
        indexes are meaningless against a service batch.
        """
        parts: List[str] = []
        for pos, pending in enumerate(batch):
            for fault in faults.request_faults(
                    pending.digest, pending.request.workload,
                    self._fault_spec):
                if fault.action in ("crash", "hang"):
                    parts.append(f"{fault.action}:cell={pos},"
                                 f"times={fault.times}")
        for fault in self._fault_spec:
            if fault.kind == "request" and fault.action == "fail":
                parts.append(f"fail:request={fault.target},"
                             f"times={fault.times}")
            elif fault.action == "corrupt" and fault.kind != "entry":
                parts.append(f"corrupt:{fault.kind}={fault.target},"
                             f"times={fault.times}")
        return ";".join(parts) if parts else None

    def _run_rung0(self, batch: List[_Pending],
                   cell_timeout: Optional[float],
                   ) -> Tuple[Optional[List[Any]],
                              resilience.SweepReport]:
        """Fast rung: the batch through the service's worker pools."""
        cells = [(pending.request.to_dict(), 0) for pending in batch]
        overrides: Dict[str, Optional[str]] = {
            faults.FAULTS_ENV: self._translated_spec(batch)}
        if cell_timeout is not None:
            overrides[resilience.TIMEOUT_ENV] = f"{cell_timeout:.3f}"
        try:
            with resilience.scoped_environ(overrides):
                sweep = resilience.run_resilient(
                    execute_request_cell, cells, jobs=self._jobs,
                    label=None, inject_faults=True, pools=self._pools)
            return list(sweep.results), sweep.report
        except resilience.SweepError as exc:
            return None, exc.report
        finally:
            # Reports were already captured above; keep the module-level
            # accumulator (meant for CLI sweeps) from growing unbounded.
            resilience.drain_reports()

    def _run_scalar_batch(self,
                          items: List[Tuple[_Pending, int]],
                          ) -> List[Dict[str, Any]]:
        """Scalar rung: reference engines, in-process, serial.

        Mirrors the executor's serial degradation semantics: every
        fault action for a still-faulted request degrades to a raised
        :class:`~repro.runtime.faults.FaultInjected`, reported as a
        typed failure.
        """
        out: List[Dict[str, Any]] = []
        for pending, attempt in items:
            try:
                faults.apply_request_faults(
                    pending.digest, pending.request.workload, attempt,
                    hard=True, spec=self._fault_spec)
                with resilience.scoped_environ(
                        {engine_mode.ENGINE_ENV:
                         engine_mode.ENGINE_SCALAR}):
                    payload = stats_payload(pending.request.run())
            except Exception as exc:
                out.append({"ok": False,
                            "error_type": type(exc).__name__,
                            "error": str(exc)})
                continue
            out.append({"ok": True, "payload": payload})
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Machine-readable account of the service's lifetime."""
        return {
            "metrics": self.metrics.to_dict(),
            "store": self.store.stats.to_dict(),
            "breakers": {
                family: {"state": guard.state, "trips": guard.n_trips}
                for family, guard in sorted(self.breakers.items())},
            "queue_limit": self.queue_limit,
            "batch_limit": self.batch_limit,
            "deadline": self.default_deadline,
            "breaker_threshold": self._breaker_threshold,
            "breaker_cooldown": self._breaker_cooldown,
            "jobs": self._jobs,
        }
