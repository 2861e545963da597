"""The discrete-event scheduler testbed and its seeded property suite.

These tests drive the *real* ``ShardScheduler`` through the virtual
clock of :mod:`repro.runtime.sim` — crashes, hangs and stragglers land
at exact simulated instants, so every scheduling invariant (no cell
lost or duplicated, steals only from the longest queue, bounded
attempts, makespan within the greedy bound, resume-after-kill
equivalence) is asserted deterministically across many seeds in well
under the wall-clock one real crash test would need.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.runtime import sim
from repro.runtime.sim import (
    SCENARIOS,
    SimSpec,
    SimSpecError,
    check_resume_equivalence,
    makespan_lower_bound,
    replay_trace,
    save_trace,
    simulate,
    verify_invariants,
)

TRACES_DIR = Path(__file__).parent / "sim_traces"

#: Seeds for the in-suite property sweeps (the CI battery runs more).
SEEDS = range(50)


class TestSpecValidation:
    def test_round_trip(self):
        spec = SimSpec(seed=3, n_cells=8, n_shards=2, n_workers=2,
                       crash_rate=0.1, retries=4)
        assert SimSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(SimSpecError, match="unknown spec fields"):
            SimSpec.from_dict({"seed": 1, "n_cells": 2, "n_shards": 1,
                               "n_workers": 1, "chaos": True})

    @pytest.mark.parametrize("overrides,message", [
        (dict(n_cells=0), "n_cells"),
        (dict(n_workers=0), "n_workers"),
        (dict(n_shards=0), "n_shards"),
        (dict(cost_model="gaussian"), "cost model"),
        (dict(crash_rate=1.0), "crash_rate"),
        (dict(crash_rate=0.6, hang_rate=0.5, timeout=1.0),
         "must be < 1"),
        (dict(hang_rate=0.2), "requires a timeout"),
        (dict(timeout=0.0), "timeout"),
        (dict(retries=-1), "retries"),
    ])
    def test_invalid_specs_rejected(self, overrides, message):
        base = dict(seed=0, n_cells=4, n_shards=2, n_workers=2)
        with pytest.raises(SimSpecError, match=message):
            SimSpec(**{**base, **overrides}).validate()

    def test_cell_count_mismatch_rejected(self):
        spec = SimSpec(seed=0, n_cells=4, n_shards=2, n_workers=2)
        with pytest.raises(SimSpecError, match="n_cells=4"):
            simulate(spec, cells=["only", "two"])


class TestDeterminism:
    @pytest.mark.parametrize("name,params", SCENARIOS)
    def test_same_spec_same_event_log(self, name, params):
        spec = SimSpec(seed=13, **params)
        first = simulate(spec)
        second = simulate(spec)
        assert first.event_rows() == second.event_rows(), name
        assert first.makespan == second.makespan

    def test_different_seeds_differ(self):
        params = dict(n_cells=20, n_shards=4, n_workers=3,
                      cost_model="skewed", speed_model="mixed")
        a = simulate(SimSpec(seed=1, **params))
        b = simulate(SimSpec(seed=2, **params))
        assert a.event_rows() != b.event_rows()


class TestInvariantsAcrossSeeds:
    """The seeded property suite: ≥50 seeds per fault scenario."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_storms_lose_and_duplicate_nothing(self, seed):
        spec = SimSpec(seed=seed, n_cells=20, n_shards=4, n_workers=4,
                       crash_rate=0.25, retries=5)
        result = simulate(spec)
        assert verify_invariants(result) == []
        assert not result.failed, \
            "5 retries must outlast a 25% crash rate here"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hangs_rescued_by_deadline_kills(self, seed):
        spec = SimSpec(seed=seed, n_cells=16, n_shards=3, n_workers=4,
                       hang_rate=0.2, timeout=3.0, retries=5,
                       speed_model="mixed")
        result = simulate(spec)
        assert verify_invariants(result) == []

    def test_crash_storms_past_the_respawn_budget_degrade(self):
        # Past max(POOL_RESPAWN_BUDGET, 2 x workers) kills the loop
        # hands the cells in flight back and finishes in-process.
        params = dict(SCENARIOS)["crashy"]
        degraded = 0
        for seed in SEEDS:
            result = simulate(SimSpec(seed=seed, **params))
            if any(event.kind == "degrade" for event in result.events):
                degraded += 1
                assert verify_invariants(result) == []
        assert degraded >= 1

    def test_skewed_costs_provoke_steals(self):
        stole = 0
        for seed in SEEDS:
            spec = SimSpec(seed=seed, n_cells=32, n_shards=4,
                           n_workers=3, cost_model="skewed")
            result = simulate(spec)
            assert verify_invariants(result) == []
            stole += len(result.steals)
        assert stole > 0, \
            "skewed schedules across 50 seeds must steal at least once"

    @pytest.mark.parametrize("seed", range(10))
    def test_makespan_within_greedy_bound(self, seed):
        spec = SimSpec(seed=seed, n_cells=24, n_shards=4, n_workers=4,
                       cost_model="bimodal")
        result = simulate(spec)
        bound = sim.MAKESPAN_FACTOR * makespan_lower_bound(spec)
        assert result.makespan <= bound + 1e-9

    def test_retry_budget_exhaustion_fails_cleanly(self):
        # retries=0 under a heavy crash rate: some cells must fail, and
        # a failed cell must have completed zero times.
        failed_somewhere = False
        for seed in SEEDS:
            spec = SimSpec(seed=seed, n_cells=10, n_shards=2,
                           n_workers=2, crash_rate=0.4, retries=0)
            result = simulate(spec)
            assert verify_invariants(result) == []
            failed_somewhere = failed_somewhere or bool(result.failed)
        assert failed_somewhere


class TestResumeEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_kill_and_resume_with_different_shard_count(self, seed):
        spec = SimSpec(seed=seed, n_cells=32, n_shards=4, n_workers=3,
                       cost_model="skewed")
        assert check_resume_equivalence(spec, resume_shards=5) is None

    def test_resumed_cells_never_reexecute(self):
        spec = SimSpec(seed=9, n_cells=12, n_shards=3, n_workers=2)
        full = simulate(spec)
        done = full.completed[:7]
        resumed = simulate(
            dataclasses.replace(spec, n_shards=2), done=done)
        assert verify_invariants(resumed) == []
        for index in done:
            assert resumed.completions[index] == 0
            assert resumed.outcomes[index].resumed

    def test_detects_reexecution_of_resumed_cells(self):
        # Mutation canary: verify_invariants must flag a schedule that
        # re-runs a journaled cell, not just trust the scheduler.
        spec = SimSpec(seed=2, n_cells=6, n_shards=2, n_workers=2)
        result = simulate(spec, done=[0])
        result.outcomes[1].resumed = True  # 1 actually re-executed
        problems = verify_invariants(result)
        assert any("re-executed" in p for p in problems)


class TestTraces:
    def test_round_trip_and_replay(self, tmp_path):
        spec = SimSpec(seed=21, n_cells=20, n_shards=4, n_workers=4,
                       crash_rate=0.2, retries=4)
        result = simulate(spec)
        path = save_trace(result, tmp_path / "trace.json")
        assert replay_trace(path) is None
        data = sim.load_trace(path)
        assert data["spec"] == spec
        assert data["events"] == result.event_rows()

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "spec": {},
                                    "events": []}))
        with pytest.raises(SimSpecError, match="unsupported trace"):
            sim.load_trace(path)

    def test_tampered_trace_is_detected(self, tmp_path):
        spec = SimSpec(seed=4, n_cells=8, n_shards=2, n_workers=2)
        path = save_trace(simulate(spec), tmp_path / "trace.json")
        data = json.loads(path.read_text())
        data["events"][0][2] = 99  # reassign the first event's worker
        path.write_text(json.dumps(data))
        reason = replay_trace(path)
        assert reason is not None and "diverged" in reason

    def test_committed_corpus_replays_bit_exact(self):
        paths = sorted(TRACES_DIR.glob("*.json"))
        assert paths, "the committed sim-trace corpus must not be empty"
        for path in paths:
            assert replay_trace(path) is None, path.name


class TestBatteryCli:
    def test_battery_runs_clean(self):
        assert sim.run_battery(3) == []

    def test_main_reports_success(self, capsys):
        assert sim.main(["--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out

    def test_main_replays_corpus_trace(self, capsys):
        path = sorted(TRACES_DIR.glob("*.json"))[0]
        assert sim.main(["--replay", str(path)]) == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_failing_battery_writes_trace_artifacts(
            self, tmp_path, monkeypatch):
        real_verify = sim.verify_invariants

        def broken_verify(result):
            return real_verify(result) + ["synthetic violation"]

        monkeypatch.setattr(sim, "verify_invariants", broken_verify)
        violations = sim.run_battery(1, traces_dir=tmp_path)
        assert violations
        assert list(tmp_path.glob("sim-*.json")), \
            "failing schedules must be saved for replay"
