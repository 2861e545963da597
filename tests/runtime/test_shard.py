"""The shard scheduler: partitioning, stealing, driver, resume.

The pure scheduler core is unit-tested with a fake clock (no sleeps);
the real driver is exercised through ``run_resilient``, which schedules
every sweep with one shard per worker.  Parallel execution must be
bit-exact with the in-process single worker, including through fault
retries and a kill/resume cycle that changes the worker count between
runs.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runtime import cache, faults, resilience
from repro.runtime.executor import JOBS_ENV
from repro.runtime.resilience import (
    FAILED,
    CellOutcome,
    SweepError,
    drain_reports,
    run_resilient,
)
from repro.runtime.shard import (
    GAVE_UP,
    RETRY,
    Assignment,
    ShardScheduler,
    ShardStateError,
    home_shards,
    partition,
)

CELLS = list(range(12))
EXPECTED = [x * x for x in CELLS]


def _square(x):
    """Top-level worker so it pickles into pool processes."""
    return x * x


@pytest.fixture(autouse=True)
def _clean_runtime(monkeypatch):
    """Hermetic knobs: no env leakage, no backoff sleeps, fresh reports."""
    for env in (JOBS_ENV, resilience.TIMEOUT_ENV, resilience.RETRIES_ENV,
                resilience.RESUME_ENV, faults.FAULTS_ENV):
        monkeypatch.delenv(env, raising=False)
    monkeypatch.setattr(resilience, "BACKOFF_BASE", 0.0)
    faults.reset()
    drain_reports()
    yield
    drain_reports()


class TestPartition:
    def test_every_cell_assigned_once(self):
        plan = partition(CELLS, 3)
        assert plan.n_cells == len(CELLS)
        assert sum(plan.counts()) == len(CELLS)
        assert all(0 <= s < 3 for s in plan.assignment)

    def test_uniform_costs_deal_round_robin(self):
        plan = partition(CELLS, 5)
        assert list(plan.assignment) == [i % 5 for i in CELLS]

    def test_shards_clamped_to_cell_count(self):
        plan = partition([1, 2], 8)
        assert plan.n_shards == 2

    def test_size_balances_skewed_costs(self):
        costs = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0]
        plan = partition(list(range(10)), 2, costs=costs)
        loads = [0.0, 0.0]
        for i, s in enumerate(plan.assignment):
            loads[s] += costs[i]
        assert abs(loads[0] - loads[1]) <= 1.0

    def test_size_cost_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="costs length"):
            partition([1, 2, 3], 2, costs=[1.0])

    def test_deterministic(self):
        assert partition(CELLS, 4) == partition(CELLS, 4)


def _scheduler(n_cells=8, n_shards=4, n_workers=2, retries=1,
               clock=lambda: 0.0, backoff=None):
    plan = partition(list(range(n_cells)), n_shards)
    outcomes = [CellOutcome(i) for i in range(n_cells)]
    sched = ShardScheduler(plan, list(range(n_cells)), n_workers,
                           retries, clock=clock, outcomes=outcomes,
                           backoff=backoff)
    return sched, outcomes


class TestScheduler:
    def test_home_shards_cover_all_shards(self):
        owned = [home_shards(w, 5, 2) for w in range(2)]
        assert sorted(s for shards in owned for s in shards) \
            == list(range(5))

    def test_acquire_prefers_home_shards(self):
        sched, _ = _scheduler()
        a = sched.acquire(0)
        assert a.shard in sched.home_shards(0)
        assert not a.stolen

    def test_double_acquire_rejected(self):
        sched, _ = _scheduler()
        sched.acquire(0)
        with pytest.raises(ShardStateError, match="acquired twice"):
            sched.acquire(0)

    def test_steals_from_longest_queue_when_homes_empty(self):
        # Worker 1 owns shards 1 and 3 (2 cells each, dealt over
        # 8 cells x 4 shards); drain them, then the next acquire must
        # steal from the longest remaining queue.
        sched, _ = _scheduler()
        for _ in range(4):
            a = sched.acquire(1)
            assert a.shard in (1, 3)
            sched.complete(1)
        stolen = sched.acquire(1)
        assert stolen.stolen
        assert len(sched.steals) == 1
        record = sched.steals[0]
        assert record.depths[record.shard] == max(record.depths)

    def test_fail_retries_then_gives_up(self):
        now = {"t": 0.0}
        sched, outcomes = _scheduler(retries=1, clock=lambda: now["t"],
                                     backoff=lambda _n: 5.0)
        a = sched.acquire(0)
        assert sched.fail(0, "boom") == RETRY
        # The retry is backing off: not dispatchable until the clock
        # passes ready_at.
        assert sched.acquire(0).cell != a.cell
        sched.complete(0)
        assert sched.next_ready_at() == 5.0
        now["t"] = 6.0
        again = sched.acquire(0)
        assert again.cell == a.cell
        assert again.attempt == 1
        assert sched.fail(0, "boom again") == GAVE_UP
        assert outcomes[a.cell].status == FAILED
        assert outcomes[a.cell].error == "boom again"

    def test_unacquire_restores_fifo_and_attempt_count(self):
        sched, outcomes = _scheduler()
        a = sched.acquire(0)
        sched.unacquire(0)
        assert outcomes[a.cell].attempts == 0
        assert sched.acquire(0).cell == a.cell

    def test_hand_back_after_a_failure_keeps_the_attempt_budget(self):
        # A cell handed back on its last allowed attempt runs that
        # attempt once more, never one past ``retries + 1``.
        sched, outcomes = _scheduler(n_cells=1, n_shards=1, n_workers=1,
                                     retries=1)
        sched.acquire(0)
        assert sched.fail(0, "boom") == RETRY
        sched.acquire(0)
        sched.unacquire(0)
        assert 0 in sched.remaining()
        assert not sched.inflight
        again = sched.acquire(0)
        assert again.attempt == 1
        assert outcomes[0].attempts == 2

    def test_duplicate_completion_rejected(self):
        sched, _ = _scheduler(n_cells=2, n_shards=1, n_workers=2)
        a = sched.acquire(0)
        sched.complete(0)
        b = sched.acquire(0)
        assert b.cell != a.cell
        with pytest.raises(ShardStateError,
                           match="no in-flight cell"):
            sched.complete(1)

    def test_finished_after_all_terminal(self):
        sched, _ = _scheduler(n_cells=3, n_shards=2, n_workers=1,
                              retries=0)
        while not sched.finished:
            assignment = sched.acquire(0)
            assert assignment is not None
            sched.complete(0)
        assert sched.completed == [0, 1, 2]
        assert sched.remaining() == []


class _ScriptedPool:
    """Stands in for one worker's process pool.

    A shard 0 cell kills the worker.  A shard 1 cell raises on its first
    attempt, and a later attempt runs until the pools are given up.
    """

    def submit(self, _shim, _fn, _cell, _index, attempt, _inject,
               shard_id, _fault_spec):
        future = Future()
        if shard_id == 0:
            future.set_exception(BrokenProcessPool("worker died"))
        elif attempt == 0:
            future.set_exception(ValueError("boom"))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestShardedExecution:
    def test_sharded_matches_serial_bit_exact(self):
        serial = run_resilient(_square, CELLS, jobs=1)
        sharded = run_resilient(_square, CELLS, jobs=3)
        assert sharded.results == serial.results == EXPECTED
        info = sharded.report.shards
        assert info is not None
        assert info.n_shards == info.n_workers == 3
        assert sum(info.cells_done.values()) == len(CELLS)
        assert "3 shard(s) over 3 worker(s)" in sharded.report.summary()

    def test_workers_capped_by_pending_cells(self):
        swept = run_resilient(_square, [1, 2], jobs=8)
        assert swept.results == [1, 4]
        assert swept.report.shards.n_workers == 2
        assert swept.report.shards.n_shards == 2

    def test_fault_retry_recovers_bit_exact(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=5,times=1")
        monkeypatch.setenv(resilience.RETRIES_ENV, "2")
        faults.reset()
        swept = run_resilient(_square, CELLS, jobs=2)
        assert swept.results == EXPECTED
        assert swept.report.outcomes[5].status == resilience.RETRIED

    def test_serial_and_parallel_account_faults_identically(
            self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=2,times=1")
        sweeps = {}
        for jobs in (1, 2):
            faults.reset()
            sweeps[jobs] = run_resilient(_square, CELLS, jobs=jobs)
        serial, parallel = sweeps[1], sweeps[2]
        assert serial.results == parallel.results == EXPECTED

        def account(sweep):
            return [(o.attempts, o.status) for o in sweep.report.outcomes]

        assert account(serial) == account(parallel)
        assert serial.report.outcomes[2].attempts == 2
        assert serial.report.outcomes[2].status == resilience.RETRIED
        assert serial.report.shards.n_workers == 1
        assert parallel.report.shards.n_workers == 2

    def test_unpicklable_work_degrades_to_serial(self):
        with pytest.warns(RuntimeWarning, match="not picklable"):
            swept = run_resilient(lambda x: x + 1, CELLS, jobs=4)
        assert swept.results == [x + 1 for x in CELLS]
        assert swept.report.shards.n_workers == 1

    def test_single_shard_uses_flat_path(self, monkeypatch):
        # One worker runs in-process: no pool is ever spawned.
        def no_pool():
            raise AssertionError("a single-worker sweep spawned a pool")

        monkeypatch.setattr(resilience, "_new_pool", no_pool)
        swept = run_resilient(_square, CELLS, jobs=1)
        assert swept.results == EXPECTED
        assert swept.report.shards.n_shards == 1
        assert swept.report.shards.n_workers == 1
        assert swept.report.shards.steals == 0

    def test_degraded_sweep_keeps_one_schedule(self, monkeypatch):
        def no_pool():
            raise OSError("fork failed")

        monkeypatch.setattr(resilience, "_new_pool", no_pool)
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            swept = run_resilient(_square, CELLS, jobs=3)
        assert swept.results == EXPECTED
        report = swept.report
        assert report.degraded_serial
        assert report.shards.n_workers == 3
        assert sum(report.shards.cells_done.values()) == len(CELLS)
        # Spawn failures hand cells back unrun: no attempt is counted
        # twice, and every cell ran exactly once in-process.
        assert [o.attempts for o in report.outcomes] == [1] * len(CELLS)


    def test_degrade_hands_back_a_last_attempt_uncounted(
            self, monkeypatch):
        # Budget max(0, 2 x 2) = 4 kills.  Worker 1's cell 1 fails
        # once, and its last allowed attempt is still running when
        # worker 0's fifth kill gives the pools up: the hand-back must
        # not cost it an attempt the in-process finisher then repeats.
        monkeypatch.setattr(resilience, "_new_pool", _ScriptedPool)
        monkeypatch.setattr(resilience, "POOL_RESPAWN_BUDGET", 0)
        monkeypatch.setenv(resilience.RETRIES_ENV, "1")
        with pytest.warns(RuntimeWarning, match="degraded to serial"), \
                pytest.raises(SweepError) as exc_info:
            run_resilient(_square, list(range(6)), jobs=2)
        report = exc_info.value.report
        assert report.degraded_serial and report.pool_respawns == 5
        assert report.failed_cells == [0, 2]
        assert report.outcomes[1].attempts == 2
        assert all(o.attempts <= 2 for o in report.outcomes)


class TestShardResume:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_kill_then_resume_with_different_shard_count(
            self, cache_dir, monkeypatch):
        baseline = run_resilient(_square, CELLS, jobs=1)

        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=4")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        faults.reset()
        with pytest.raises(SweepError) as exc_info:
            run_resilient(_square, CELLS, jobs=2, label="resume-x")
        assert exc_info.value.report.failed_cells == [4]
        entries = sorted((cache_dir / "journal").rglob("cell-*.pkl"))
        assert len(entries) == len(CELLS) - 1, \
            "every completed cell must be journaled"
        assert all(p.parent.parent == cache_dir / "journal"
                   for p in entries), "the journal layout is flat"

        monkeypatch.delenv(faults.FAULTS_ENV)
        monkeypatch.setenv(resilience.RETRIES_ENV, "2")
        faults.reset()
        resumed = run_resilient(_square, CELLS, jobs=1,
                                label="resume-x")
        assert resumed.results == baseline.results == EXPECTED
        report = resumed.report
        assert report.resumed_cells == [i for i in CELLS if i != 4]
        assert report.shards.n_workers == 1
        assert not list((cache_dir / "journal").iterdir()), \
            "journal must be discarded after success"

    def test_old_shard_subdirectory_entries_are_recomputed(
            self, cache_dir):
        journal = resilience.Journal.open("legacy", _square, CELLS)
        journal.record(0, "stale")
        legacy = journal.directory / "shard-00" / "cell-1.pkl"
        legacy.parent.mkdir(parents=True)
        legacy.write_bytes((journal.directory / "cell-0.pkl").read_bytes())
        assert journal.load() == {0: "stale"}

    def test_sharded_journal_resumes_serially_too(self, cache_dir,
                                                  monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=2")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        faults.reset()
        with pytest.raises(SweepError):
            run_resilient(_square, CELLS, jobs=4, label="to-serial")
        monkeypatch.delenv(faults.FAULTS_ENV)
        faults.reset()
        resumed = run_resilient(_square, CELLS, jobs=1,
                                label="to-serial")
        assert resumed.results == EXPECTED
        assert resumed.report.resumed_cells


class TestFig6Sharded:
    """The PR's acceptance scenario at unit-test scale."""

    BUDGET = 2_000

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_sharded_fig6_bit_identical_to_serial(self, monkeypatch):
        from repro.experiments.fig6 import run_fig6

        serial = run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        drain_reports()
        monkeypatch.setenv(JOBS_ENV, "2")
        sharded = run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        assert sharded == serial
        report = next(r for r in drain_reports() if r.label == "fig6")
        assert report.shards is not None
        assert report.shards.n_shards == 2

    def test_kill_resume_cycle_stays_bit_exact(self, cache_dir,
                                               monkeypatch):
        from repro.experiments.fig6 import run_fig6

        serial = run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        drain_reports()

        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=2")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        monkeypatch.setenv(JOBS_ENV, "2")
        faults.reset()
        with pytest.raises(SweepError):
            run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        assert list((cache_dir / "journal").iterdir())
        drain_reports()

        monkeypatch.delenv(faults.FAULTS_ENV)
        monkeypatch.setenv(resilience.RETRIES_ENV, "2")
        monkeypatch.setenv(JOBS_ENV, "3")
        faults.reset()
        resumed = run_fig6(history_lengths=(6, 8), budget=self.BUDGET)
        assert resumed == serial
        report = next(r for r in drain_reports() if r.label == "fig6")
        assert report.resumed_cells, "resume must reuse journaled cells"
