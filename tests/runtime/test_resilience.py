"""Resilient sweep execution: retries, deadlines, crash recovery, resume.

Every recovery path is driven through the deterministic fault-injection
harness (``REPRO_FAULT_SPEC``) — no sleeps, no signals, no flaky timing:
a fault fires on an exact (cell, attempt) pair, so each test proves one
recovery transition and the bit-exactness of the recovered results.
"""

import multiprocessing

import pytest

from repro.runtime import cache, faults, resilience
from repro.runtime.executor import JOBS_ENV, execute
from repro.runtime.resilience import (
    FAILED,
    OK,
    RETRIED,
    TIMED_OUT,
    Journal,
    SweepError,
    cell_timeout,
    drain_reports,
    resume_enabled,
    retry_limit,
    run_resilient,
)

CELLS = list(range(6))
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


class TestKnobs:
    def test_timeout_unset_means_no_deadline(self):
        assert cell_timeout() is None

    @pytest.mark.parametrize("value", ["0", "off", "none", ""])
    def test_timeout_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(resilience.TIMEOUT_ENV, value)
        assert cell_timeout() is None

    def test_timeout_seconds(self, monkeypatch):
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "2.5")
        assert cell_timeout() == 2.5

    @pytest.mark.parametrize("value", ["fast", "-3"])
    def test_timeout_garbage_rejected(self, monkeypatch, value):
        monkeypatch.setenv(resilience.TIMEOUT_ENV, value)
        with pytest.raises(ValueError, match=resilience.TIMEOUT_ENV):
            cell_timeout()

    def test_retries_default(self):
        assert retry_limit() == resilience.DEFAULT_RETRIES

    def test_retries_explicit(self, monkeypatch):
        monkeypatch.setenv(resilience.RETRIES_ENV, "5")
        assert retry_limit() == 5
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        assert retry_limit() == 0

    @pytest.mark.parametrize("value", ["many", "-1"])
    def test_retries_garbage_rejected(self, monkeypatch, value):
        monkeypatch.setenv(resilience.RETRIES_ENV, value)
        with pytest.raises(ValueError, match=resilience.RETRIES_ENV):
            retry_limit()

    def test_resume_default_on(self):
        assert resume_enabled() is True

    @pytest.mark.parametrize("value,expected", [
        ("0", False), ("off", False), ("no", False),
        ("1", True), ("on", True), ("yes", True),
    ])
    def test_resume_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(resilience.RESUME_ENV, value)
        assert resume_enabled() is expected

    def test_resume_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv(resilience.RESUME_ENV, "maybe")
        with pytest.raises(ValueError, match=resilience.RESUME_ENV):
            resume_enabled()


class TestRetry:
    def test_retry_until_success_serial(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=1,times=2")
        monkeypatch.setenv(resilience.RETRIES_ENV, "3")
        sweep = run_resilient(_square, CELLS, jobs=1)
        assert sweep.results == EXPECTED
        outcome = sweep.report.outcomes[1]
        assert outcome.status == RETRIED
        assert outcome.attempts == 3
        assert sweep.report.retried_cells == [1]
        assert [o.status for i, o in enumerate(sweep.report.outcomes)
                if i != 1] == [OK] * 5

    def test_retries_exhausted_raises_sweep_error(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=2,times=99")
        monkeypatch.setenv(resilience.RETRIES_ENV, "1")
        with pytest.raises(SweepError) as excinfo:
            run_resilient(_square, CELLS, jobs=1)
        report = excinfo.value.report
        assert report.failed_cells == [2]
        assert report.outcomes[2].status == FAILED
        assert report.outcomes[2].attempts == 2  # initial + 1 retry
        assert "injected fail" in report.outcomes[2].error

    def test_serial_crash_fault_degrades_to_retry(self, monkeypatch):
        # No worker to sacrifice in serial mode: the crash becomes an
        # exception and the retry path recovers it.
        monkeypatch.setenv(faults.FAULTS_ENV, "crash:cell=0")
        sweep = run_resilient(_square, CELLS, jobs=1)
        assert sweep.results == EXPECTED
        assert sweep.report.retried_cells == [0]

    def test_reports_are_drained_in_order(self, monkeypatch):
        run_resilient(_square, CELLS, jobs=1, label="alpha")
        run_resilient(_square, CELLS, jobs=1, label="beta")
        labels = [r.label for r in drain_reports()]
        assert labels == ["alpha", "beta"]
        assert drain_reports() == []


class TestCrashRecovery:
    def test_worker_crash_respawns_pool_and_reruns_lost_cell(
            self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "crash:cell=1")
        sweep = run_resilient(_square, CELLS, jobs=2)
        assert sweep.results == EXPECTED
        # Exactly the crashed cell retried: single-worker slot pools
        # make fault attribution exact, so no innocent cell re-runs.
        assert sweep.report.retried_cells == [1]
        assert sweep.report.pool_respawns >= 1
        assert not sweep.report.degraded_serial

    def test_parallel_with_faults_matches_serial_clean(self,
                                                       monkeypatch):
        clean = run_resilient(_square, CELLS, jobs=1).results
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "crash:cell=0;fail:cell=4,times=1")
        faulty = run_resilient(_square, CELLS, jobs=2).results
        assert faulty == clean


class TestTimeout:
    def test_hung_worker_killed_and_cell_retried(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "hang:cell=2")
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "1")
        sweep = run_resilient(_square, CELLS, jobs=2)
        assert sweep.results == EXPECTED
        outcome = sweep.report.outcomes[2]
        assert outcome.status == TIMED_OUT
        assert outcome.timeouts == 1
        assert sweep.report.timed_out_cells == [2]

    def test_timeout_exhausting_retries_fails_the_cell(self,
                                                       monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "hang:cell=2,times=99")
        monkeypatch.setenv(resilience.TIMEOUT_ENV, "0.5")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        with pytest.raises(SweepError) as excinfo:
            run_resilient(_square, CELLS, jobs=2)
        assert excinfo.value.report.failed_cells == [2]
        assert "deadline" in excinfo.value.report.outcomes[2].error


@pytest.fixture()
def pool_spawns(monkeypatch):
    """Count the single-worker pools the sweeps fork."""
    spawned = []
    real = resilience._new_pool

    def counting():
        spawned.append(1)
        return real()

    monkeypatch.setattr(resilience, "_new_pool", counting)
    return spawned


class TestWorkerPools:
    def test_sweep_without_holder_shuts_its_pools_down(self, pool_spawns):
        sweep = run_resilient(_square, CELLS, jobs=2)
        assert sweep.results == EXPECTED
        assert len(pool_spawns) == 2
        assert multiprocessing.active_children() == []

    def test_held_pools_fork_once_across_sweeps(self, pool_spawns):
        pools = resilience.WorkerPools()
        try:
            for _ in range(3):
                sweep = run_resilient(_square, CELLS, jobs=2, pools=pools)
                assert sweep.results == EXPECTED
                assert sweep.report.clean
            assert len(pool_spawns) == 2  # one per worker, not per sweep
            assert len(multiprocessing.active_children()) == 2
        finally:
            pools.close()
        assert multiprocessing.active_children() == []

    def test_held_pools_honour_a_fault_spec_set_between_sweeps(
            self, monkeypatch):
        pools = resilience.WorkerPools()
        try:
            run_resilient(_square, CELLS, jobs=2, pools=pools)
            # The workers are already alive: the spec must reach them
            # with the cells, not through their (stale) environment.
            monkeypatch.setenv(faults.FAULTS_ENV, "crash:cell=1")
            sweep = run_resilient(_square, CELLS, jobs=2, pools=pools)
        finally:
            pools.close()
        assert sweep.results == EXPECTED
        assert sweep.report.retried_cells == [1]
        assert sweep.report.outcomes[1].attempts == 2
        assert sweep.report.pool_respawns == 1

    def test_held_pools_kill_a_hang_at_the_deadline(self, monkeypatch):
        pools = resilience.WorkerPools()
        try:
            run_resilient(_square, CELLS, jobs=2, pools=pools)
            monkeypatch.setenv(faults.FAULTS_ENV, "hang:cell=2")
            monkeypatch.setenv(resilience.TIMEOUT_ENV, "1")
            sweep = run_resilient(_square, CELLS, jobs=2, pools=pools)
            # The killed slot respawns lazily; the next sweep runs clean
            # on the same holder.
            monkeypatch.delenv(faults.FAULTS_ENV)
            after = run_resilient(_square, CELLS, jobs=2, pools=pools)
        finally:
            pools.close()
        assert sweep.results == EXPECTED
        assert sweep.report.timed_out_cells == [2]
        assert sweep.report.pool_respawns == 1
        assert after.results == EXPECTED and after.report.clean


class TestJournalResume:
    @pytest.fixture()
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_interrupted_sweep_resumes_bit_exact(self, cache_dir,
                                                 monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=3,times=99")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        with pytest.raises(SweepError):
            run_resilient(_square, CELLS, jobs=1, label="unit")
        journals = list((cache_dir / "journal").iterdir())
        assert len(journals) == 1  # completed cells checkpointed

        monkeypatch.delenv(faults.FAULTS_ENV)
        sweep = run_resilient(_square, CELLS, jobs=1, label="unit")
        assert sweep.results == EXPECTED  # resumed == fresh, bit-exact
        assert sweep.report.resumed_cells == [0, 1, 2, 4, 5]
        assert sweep.report.outcomes[3].attempts == 1  # only 3 re-ran
        assert not (cache_dir / "journal" / journals[0].name).exists()

    def test_parallel_resume_matches_serial_fresh(self, cache_dir,
                                                  monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=5,times=99")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        with pytest.raises(SweepError):
            run_resilient(_square, CELLS, jobs=2, label="par")
        monkeypatch.delenv(faults.FAULTS_ENV)
        resumed = run_resilient(_square, CELLS, jobs=2, label="par")
        fresh = run_resilient(_square, CELLS, jobs=1).results
        assert resumed.results == fresh
        assert resumed.report.resumed_cells  # really used the journal

    def test_no_resume_recomputes_every_cell(self, cache_dir,
                                             monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=3,times=99")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        with pytest.raises(SweepError):
            run_resilient(_square, CELLS, jobs=1, label="unit")
        monkeypatch.delenv(faults.FAULTS_ENV)
        monkeypatch.setenv(resilience.RESUME_ENV, "0")
        sweep = run_resilient(_square, CELLS, jobs=1, label="unit")
        assert sweep.results == EXPECTED
        assert sweep.report.resumed_cells == []

    def test_unlabeled_sweeps_never_journal(self, cache_dir):
        run_resilient(_square, CELLS, jobs=1)
        assert not (cache_dir / "journal").exists()

    def test_key_distinguishes_different_cells(self):
        assert Journal.sweep_key("x", _square, [1, 2]) != \
            Journal.sweep_key("x", _square, [1, 3])
        assert Journal.sweep_key("x", _square, [1, 2]) == \
            Journal.sweep_key("x", _square, [1, 2])

    def test_corrupt_journal_entry_is_recomputed(self, cache_dir,
                                                 monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=3,times=99")
        monkeypatch.setenv(resilience.RETRIES_ENV, "0")
        with pytest.raises(SweepError):
            run_resilient(_square, CELLS, jobs=1, label="unit")
        entry = next((cache_dir / "journal").glob("*/cell-0.pkl"))
        entry.write_bytes(b"torn write")
        monkeypatch.delenv(faults.FAULTS_ENV)
        sweep = run_resilient(_square, CELLS, jobs=1, label="unit")
        assert sweep.results == EXPECTED
        assert 0 not in sweep.report.resumed_cells


class TestDegradation:
    def test_unspawnable_pools_degrade_to_serial_with_warning(
            self, monkeypatch):
        def no_pool():
            raise OSError("fork failed")

        monkeypatch.setattr(resilience, "_new_pool", no_pool)
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            sweep = run_resilient(_square, CELLS, jobs=4)
        assert sweep.results == EXPECTED
        assert sweep.report.degraded_serial
        assert sweep.report.n_ok == len(CELLS)

    def test_unpicklable_sweep_warns_and_runs_serial(self):
        double = lambda x: 2 * x  # noqa: E731 — deliberately unpicklable
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = execute(double, [1, 2, 3], jobs=4)
        assert results == [2, 4, 6]


class TestFig6EndToEnd:
    """The PR's acceptance scenario at unit-test scale."""

    BUDGET = 3_000

    def test_crash_fault_bit_identical_to_clean_serial(self,
                                                       monkeypatch):
        from repro.experiments.fig6 import run_fig6

        clean = run_fig6(budget=self.BUDGET)
        drain_reports()
        monkeypatch.setenv(faults.FAULTS_ENV, "crash:cell=3")
        monkeypatch.setenv(JOBS_ENV, "2")
        faulty = run_fig6(budget=self.BUDGET)
        assert faulty == clean  # aggregates bit-identical
        report = next(r for r in drain_reports() if r.label == "fig6")
        assert report.retried_cells == [3]  # exactly one retried cell
        assert report.failed_cells == []
