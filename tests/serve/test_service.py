"""PredictionService: admission, dedup, and the degradation ladder.

The ladder tests are the satellite coverage promised by the issue:
deterministic fault specs force each rung — fast → scalar → cached-only
→ shed — and every test asserts the rung taken is recorded in the
response metadata.
"""

import asyncio
import multiprocessing
import time

import pytest

from repro.core import engine_mode
from repro.runtime import faults, resilience
from repro.serve import PredictionService, ServeRequest, ServiceOverload
from repro.serve.requests import (
    FAILED,
    RUNG_CACHED,
    RUNG_FAST,
    RUNG_SCALAR,
    RUNG_SHED,
    SERVED,
    SHED,
)
from repro.serve.requests import payload_digest, stats_payload
from repro.serve.service import _Pending
from repro.serve.traffic import (
    TrafficModel,
    build_universe,
    request_stream,
    run_traffic,
)


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


REQUEST = ServeRequest(workload="kmp", engine="dual", budget=2000)
OTHER = ServeRequest(workload="compress", engine="dual", budget=2000)


def _service(**kw):
    defaults = dict(queue_limit=16, batch_limit=8, jobs=2,
                    breaker_threshold=2, breaker_cooldown=0.2)
    defaults.update(kw)
    return PredictionService(**defaults)


def _run(coro):
    return asyncio.run(coro)


class TestSettings:
    def test_defaults(self):
        summary = PredictionService(jobs=2).summary()
        assert {key: summary[key] for key in (
            "queue_limit", "batch_limit", "deadline", "breaker_threshold",
            "breaker_cooldown", "jobs")} == {
            "queue_limit": 256, "batch_limit": 32, "deadline": None,
            "breaker_threshold": 5, "breaker_cooldown": 5.0, "jobs": 2}

    @pytest.mark.parametrize("setting,value", [
        ("queue_limit", 0), ("queue_limit", -3), ("batch_limit", 0),
        ("deadline", 0.0), ("deadline", -1.0), ("deadline", float("nan")),
        ("breaker_threshold", 0), ("breaker_cooldown", 0.0),
        ("breaker_cooldown", -0.5)])
    def test_bad_setting_raises_naming_it(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            PredictionService(**{setting: value})

    def test_summary_echoes_every_setting(self):
        summary = _service(deadline=1.5).summary()
        assert {key: summary[key] for key in (
            "queue_limit", "batch_limit", "deadline", "breaker_threshold",
            "breaker_cooldown")} == {
            "queue_limit": 16, "batch_limit": 8, "deadline": 1.5,
            "breaker_threshold": 2, "breaker_cooldown": 0.2}


class TestHappyPath:
    def test_fast_rung_then_cached_rung(self):
        async def body():
            async with _service() as svc:
                first = await svc.submit(REQUEST)
                second = await svc.submit(REQUEST)
                return first, second

        first, second = _run(body())
        assert (first.status, first.rung) == (SERVED, RUNG_FAST)
        assert (second.status, second.rung) == (SERVED, RUNG_CACHED)
        assert second.cache_hit
        assert first.payload_digest == second.payload_digest
        assert first.payload == second.payload

    def test_single_flight_dedup(self):
        async def body():
            async with _service() as svc:
                outs = await asyncio.gather(
                    *[svc.submit(REQUEST) for _ in range(5)])
                return outs, svc.metrics.deduped

        outs, deduped = _run(body())
        assert deduped == 4
        assert sum(1 for o in outs if o.deduped) == 4
        assert len({o.payload_digest for o in outs}) == 1

    def test_invalid_request_is_a_typed_failure(self):
        async def body():
            async with _service() as svc:
                return await svc.submit(ServeRequest(workload="nosuch"))

        response = _run(body())
        assert response.status == FAILED
        assert response.error_type == "InvalidRequest"

    def test_submit_requires_running_service(self):
        svc = _service()
        with pytest.raises(RuntimeError, match="not running"):
            _run(svc.submit(REQUEST))


class TestWarmAdmission:
    """A request whose answer is known costs one digest and one read."""

    def test_repeated_submits_build_no_further_engine(self, monkeypatch):
        built = []
        build_engine = ServeRequest.build_engine

        def counting(self):
            built.append(self.digest())
            return build_engine(self)

        monkeypatch.setattr(ServeRequest, "build_engine", counting)

        async def body():
            async with _service() as svc:
                first = await svc.submit(REQUEST)
                n_first = len(built)
                # Fresh objects too: nothing is memoised on a request.
                again = [await svc.submit(
                    ServeRequest.from_dict(REQUEST.to_dict()))
                    for _ in range(20)]
                return first, n_first, again

        first, n_first, again = _run(body())
        assert first.rung == RUNG_FAST
        # Validation plus the one-cell batch, which runs in-process.
        assert built == [REQUEST.digest()] * n_first and n_first >= 1
        assert len(built) == n_first
        assert all(r.rung == RUNG_CACHED for r in again)

    def test_invalid_request_after_warm_traffic(self):
        bad = ServeRequest(workload="nosuch", engine="dual", budget=2000)

        async def body():
            async with _service() as svc:
                for _ in range(3):
                    await asyncio.gather(svc.submit(REQUEST),
                                         svc.submit(OTHER))
                n_entries, hits = len(svc.store), svc.store.stats.hits
                responses = [await svc.submit(bad) for _ in range(2)]
                return (svc, responses, n_entries, hits)

        svc, responses, n_entries, hits = _run(body())
        assert n_entries == 2
        for response in responses:
            assert (response.status, response.error_type) == (
                FAILED, "InvalidRequest")
            assert response.request_digest == bad.digest()
        assert len(svc.store) == n_entries
        assert svc.store.stats.hits == hits
        assert svc.metrics.invalid == 2

    def test_cached_responses_carry_verified_digests(self, qa_seed):
        universe = build_universe(qa_seed, 4, budget=2000)
        model = TrafficModel(pattern="zipfian", arrival="bursty", burst=8)
        indexes = request_stream(model, len(universe), 48, qa_seed)

        async def body():
            async with _service() as svc:
                _, responses = await run_traffic(svc, universe, indexes,
                                                 model)
                return svc, responses

        svc, responses = _run(body())
        cached = [r for r in responses if r.rung == RUNG_CACHED]
        assert cached
        for response in cached:
            assert response.cache_hit
            assert response.payload_digest == payload_digest(
                response.payload)
        assert svc.store.stats.hits == svc.metrics.served_cached
        assert svc.metrics.served_cached == len(cached)

    def test_store_is_read_once_per_request(self):
        """Only admission reads the store: a queued request is its
        digest's in-flight leader, so its batch never reads it again."""
        async def body():
            async with _service() as svc:
                await asyncio.gather(svc.submit(REQUEST),
                                     svc.submit(OTHER))
                await svc.submit(REQUEST)
                return svc

        svc = _run(body())
        assert svc.metrics.served_fast == 2
        assert (svc.store.stats.hits, svc.store.stats.misses) == (1, 2)


class TestDegradationLadder:
    def test_crash_recovers_on_fast_rung(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"crash:request={REQUEST.digest()[:8]}")
        async def body():
            async with _service() as svc:
                # Two distinct requests force a parallel batch, so the
                # crash really kills a worker process.
                a, b = await asyncio.gather(svc.submit(REQUEST),
                                            svc.submit(OTHER))
                return a, b, svc.metrics

        a, b, metrics = _run(body())
        assert (a.status, a.rung) == (SERVED, RUNG_FAST)
        assert a.attempts == 2              # crashed once, retried clean
        assert (b.status, b.rung) == (SERVED, RUNG_FAST)
        assert metrics.pool_respawns >= 1

    def test_fail_once_drops_to_scalar_rung(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"fail:request={REQUEST.digest()[:8]}")
        async def body():
            async with _service() as svc:
                return await svc.submit(REQUEST)

        response = _run(body())
        assert (response.status, response.rung) == (SERVED, RUNG_SCALAR)

    def test_scalar_rung_is_bit_exact(self, monkeypatch):
        clean = REQUEST.run()
        from repro.serve.requests import payload_digest, stats_payload

        expected = payload_digest(stats_payload(clean))
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"fail:request={REQUEST.digest()[:8]}")
        async def body():
            async with _service() as svc:
                return await svc.submit(REQUEST)

        assert _run(body()).payload_digest == expected

    def test_persistent_fault_is_a_typed_failure(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"fail:request={REQUEST.digest()[:8]},times=9")
        async def body():
            async with _service() as svc:
                return await svc.submit(REQUEST)

        response = _run(body())
        assert response.status == FAILED
        assert response.rung == RUNG_SCALAR
        assert response.error_type == "FaultInjected"

    def test_breaker_sheds_family_after_consecutive_failures(
            self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:request=kmp,times=99")
        variants = [ServeRequest(workload="kmp", engine=e, budget=2000)
                    for e in ("dual", "single", "two_ahead")]

        async def body():
            async with _service() as svc:
                outs = [await svc.submit(r) for r in variants]
                return outs, svc.breakers["kmp"]

        outs, guard = _run(body())
        assert [o.status for o in outs] == [FAILED, FAILED, SHED]
        shed = outs[2]
        assert shed.rung == RUNG_SHED
        assert shed.error_type == "BreakerOpen"
        assert shed.retry_after > 0
        assert guard.state == "open"
        assert guard.n_trips == 1

    def test_open_breaker_still_serves_cached(self, monkeypatch):
        # Serve and cache one kmp answer with no faults, then trip the
        # breaker with a persistent fault on a *different* kmp request:
        # the cached digest keeps serving (cached-only mode), the rest
        # of the family sheds.
        cached_req = REQUEST
        faulty = ServeRequest(workload="kmp", engine="single",
                              budget=2000)
        third = ServeRequest(workload="kmp", engine="two_ahead",
                             budget=2000)

        async def body():
            async with _service() as svc:
                warm = await svc.submit(cached_req)
                svc.breakers["kmp"].record_failure()
                svc.breakers["kmp"].record_failure()
                assert svc.breakers["kmp"].state == "open"
                hit = await svc.submit(cached_req)
                shed = await svc.submit(third)
                return warm, hit, shed

        warm, hit, shed = _run(body())
        assert warm.rung == RUNG_FAST
        assert (hit.status, hit.rung) == (SERVED, RUNG_CACHED)
        assert (shed.status, shed.rung) == (SHED, RUNG_SHED)

    def test_probe_closes_breaker_after_cooldown(self, monkeypatch):
        async def body():
            async with _service() as svc:
                svc.breakers["kmp"] = guard = svc._breaker("kmp")
                guard.record_failure()
                guard.record_failure()
                assert guard.state == "open"
                await asyncio.sleep(0.25)   # past the 0.2s cooldown
                probe = await svc.submit(REQUEST)
                return probe, guard

        probe, guard = _run(body())
        assert probe.status == SERVED
        assert guard.state == "closed"


class TestDeadlines:
    def test_expired_in_queue_is_typed(self):
        async def body():
            async with _service() as svc:
                loop = asyncio.get_running_loop()
                future = loop.create_future()
                now = time.monotonic()
                pending = _Pending(request=REQUEST,
                                   digest=REQUEST.digest(),
                                   future=future, submitted=now - 1.0,
                                   deadline_at=now - 0.5)
                await svc._process_batch([pending])
                return await future, svc.metrics.expired

        response, expired = _run(body())
        assert response.status == FAILED
        assert response.error_type == "DeadlineExceeded"
        assert expired == 1

    def test_hang_is_killed_at_deadline_and_retried(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"hang:request={REQUEST.digest()[:8]}")
        async def body():
            async with _service() as svc:
                a, b = await asyncio.gather(
                    svc.submit(REQUEST, deadline=3.0),
                    svc.submit(OTHER, deadline=3.0))
                return a, b, svc.metrics.cell_timeouts

        start = time.monotonic()
        a, b, timeouts = _run(body())
        elapsed = time.monotonic() - start
        assert (a.status, a.rung) == (SERVED, RUNG_FAST)
        assert (b.status, b.rung) == (SERVED, RUNG_FAST)
        assert timeouts == 1
        assert elapsed < 30.0  # killed at the ~3s deadline, not 600s


class TestAdmission:
    def test_overload_sheds_with_retry_after(self):
        requests = [ServeRequest(workload="kmp", engine="dual",
                                 budget=2000 + 100 * i)
                    for i in range(4)]

        async def body():
            svc = _service(queue_limit=2)
            svc._running = True  # admission only: no dispatcher running
            tasks = [asyncio.create_task(svc.submit(r))
                     for r in requests[:2]]
            await asyncio.sleep(0.01)
            with pytest.raises(ServiceOverload) as info:
                await svc.submit(requests[2])
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            return info.value, svc.metrics.shed_overload

        error, shed = _run(body())
        assert error.retry_after > 0
        assert error.queue_depth == 2
        assert shed == 1

    def test_stop_sheds_queued_requests_typed(self):
        async def body():
            svc = _service()
            await svc.start()
            # Bypass the dispatcher: enqueue behind the stop sentinel
            # by stuffing the queue directly, then stop.
            loop = asyncio.get_running_loop()
            future = loop.create_future()
            pending = _Pending(request=REQUEST,
                               digest=REQUEST.digest(), future=future,
                               submitted=time.monotonic(),
                               deadline_at=None)
            stopper = asyncio.create_task(svc.stop())
            await asyncio.sleep(0)
            svc._queue.put_nowait(pending)
            await stopper
            return await future, svc.metrics.shed_shutdown

        response, shed = _run(body())
        assert response.status == SHED
        assert response.error_type == "ServiceShutdown"
        assert shed == 1


class TestShardRouting:
    def test_sharded_batch_matches_unsharded(self):
        # One batch worker runs in-process, two run on worker processes;
        # the shard scheduler dispatches both, and neither may change a
        # payload.
        requests = [
            ServeRequest(workload="kmp", engine="dual", budget=1500),
            ServeRequest(workload="compress", engine="dual",
                         budget=1500),
            ServeRequest(workload="kmp", engine="single", budget=1500),
            ServeRequest(workload="compress", engine="multi",
                         budget=1500),
        ]

        def run_with(jobs):
            async def body():
                async with _service(jobs=jobs) as svc:
                    responses = await asyncio.gather(
                        *(svc.submit(r) for r in requests))
                    return responses, svc.summary()
            return _run(body())

        serial, serial_summary = run_with(1)
        parallel, parallel_summary = run_with(2)
        assert serial_summary["jobs"] == 1
        assert parallel_summary["jobs"] == 2
        for a, b in zip(serial, parallel):
            assert a.status == b.status == SERVED
            assert a.payload_digest == b.payload_digest, \
                "parallel dispatch must not change any payload"


#: Two clean requests: a batch of them forks both worker pools.
WARM = (REQUEST, OTHER)
#: A later batch: one faulted request next to a clean neighbour.
FAULTED = ServeRequest(workload="kmp", engine="single", budget=2000)
NEIGHBOUR = ServeRequest(workload="compress", engine="single",
                         budget=2000)


def _scalar_digest(request):
    with resilience.scoped_environ(
            {engine_mode.ENGINE_ENV: engine_mode.ENGINE_SCALAR}):
        return payload_digest(stats_payload(request.run()))


class TestLongLivedPools:
    """The fast rung's workers outlive a batch and still recover."""

    def test_pools_fork_once_across_batches(self, monkeypatch):
        spawned = []
        real = resilience._new_pool

        def counting():
            spawned.append(1)
            return real()

        monkeypatch.setattr(resilience, "_new_pool", counting)
        batches = [(ServeRequest(workload="kmp", engine=e, budget=2000),
                    ServeRequest(workload="compress", engine=e,
                                 budget=2000))
                   for e in ("dual", "single", "two_ahead")]

        async def body():
            async with _service() as svc:
                for pair in batches:
                    outs = await asyncio.gather(
                        *(svc.submit(r) for r in pair))
                    assert [o.rung for o in outs] == [RUNG_FAST] * 2
                return svc.metrics

        metrics = _run(body())
        assert metrics.batches == len(batches)
        assert len(spawned) == 2  # one per job, not one per batch

    def _faulted_batch(self, deadline):
        async def body():
            async with _service() as svc:
                warm = await asyncio.gather(*(svc.submit(r) for r in WARM))
                assert [o.rung for o in warm] == [RUNG_FAST] * 2
                assert len(multiprocessing.active_children()) == 2
                hit, neighbour = await asyncio.gather(
                    svc.submit(FAULTED, deadline=deadline),
                    svc.submit(NEIGHBOUR, deadline=deadline))
                return hit, neighbour, svc.metrics

        return _run(body())

    @pytest.mark.parametrize("action,deadline", [("crash", None),
                                                 ("hang", 3.0)])
    def test_fault_in_a_later_batch_hits_a_live_worker(
            self, monkeypatch, action, deadline):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           f"{action}:request={FAULTED.digest()[:8]}")
        start = time.monotonic()
        hit, neighbour, metrics = self._faulted_batch(deadline)
        assert time.monotonic() - start < 30.0
        assert (hit.status, hit.rung) == (SERVED, RUNG_FAST)
        assert hit.attempts == 2  # faulted once, retried clean
        assert metrics.pool_respawns == 1
        assert metrics.cell_timeouts == (1 if action == "hang" else 0)
        assert hit.payload_digest == _scalar_digest(FAULTED)
        assert (neighbour.status, neighbour.rung) == (SERVED, RUNG_FAST)
        assert neighbour.payload_digest == _scalar_digest(NEIGHBOUR)

    def test_stop_leaves_no_worker_processes(self):
        async def body():
            async with _service() as svc:
                await asyncio.gather(*(svc.submit(r) for r in WARM))
                assert len(multiprocessing.active_children()) == 2

        _run(body())
        assert multiprocessing.active_children() == []
