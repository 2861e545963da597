"""Tiny runs of every workload through the real command line."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import common
import reference
import scenarios

RUN = common.BENCH_DIR / "run.py"


def run(workdir, *extra, cwd=common.ROOT, script=RUN, workload="sweep-warm"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "8", "--size", "tiny", "--workdir", str(workdir),
         *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_tiny_run_passes_its_output_check(workdir, workload):
    proc = run(workdir, "--trace", "0", workload=workload)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    units = common.metric_units("end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3]
               for line in proc.stdout.splitlines()
               if line.startswith("metric ")}
    expected = dict(units)
    for m in common.printed_metrics(workload):
        expected[m["name"]] = m["unit"]
    assert printed == expected
    env = json.loads(next(line[4:] for line in proc.stdout.splitlines()
                          if line.startswith("env ")))
    assert {"nproc", "python", "numpy", "commit", "seed"} <= set(env)


def test_traced_run_prints_every_layer_metric(workdir):
    proc = run(workdir, "--trace", "1", workload="capture-cold")
    assert proc.returncode == 0, proc.stderr
    metrics = result_of(proc)["metrics"]
    units = common.metric_units("per_layer")
    assert {k: v["unit"] for k, v in metrics.items()} == units
    assert metrics["cpu.capture_s"]["value"] > 0
    assert metrics["bench.timed_span_share"]["value"] >= 0.9
    assert metrics["bench.timed_inner_span_share"]["value"] >= 0.9


def test_wrong_output_fails_the_run(workdir):
    assert run(workdir).returncode == 0
    table_path = reference.local_table(workdir,
                                       "sweep-warm-tiny-seed3.json")
    table = json.loads(table_path.read_text())
    key = sorted(table)[0]
    table[key]["base_cycles"] += 1
    table_path.write_text(json.dumps(table))
    proc = run(workdir)
    assert proc.returncode == 1
    result = result_of(proc)
    # The altered cell is produced once per repetition.
    assert result["correct"] is False
    assert result["failed"] == common.REPEATS
    assert "fail_share" in proc.stdout


def test_corrupted_cached_trace_fails_the_run(tmp_path, monkeypatch):
    # The references must be captured afresh, not read back from the
    # cache the measured run uses: store one analog's trace under
    # another's key, drop the derived artifacts, and the run must fail.
    assert run(tmp_path).returncode == 0
    shutil.rmtree(tmp_path / "refs")
    warm = tmp_path / "tiny" / "warm-sweep-warm"
    monkeypatch.setenv(common.CACHE_ENV, str(warm))
    from repro.runtime import cache
    from repro.workloads.registry import REGISTRY

    victim, donor = "compress", "gcc"
    budget = scenarios.SIZES["tiny"].sweep_budget
    trace = cache.load_trace(donor, budget, REGISTRY.digest(donor))
    assert trace is not None
    cache.store_trace(trace, victim, budget, REGISTRY.digest(victim))
    derived = [p for sub in ("blocks", "compiled")
               for p in (warm / sub).glob(f"{victim}-*")]
    assert derived
    for path in derived:
        path.unlink()
    monkeypatch.delenv(common.CACHE_ENV)
    proc = run(tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] > 0
    assert "compress" in proc.stdout


def test_refuses_repro_knobs(workdir, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "2")
    proc = run(workdir)
    assert proc.returncode == 2
    assert "REPRO_JOBS" in proc.stderr and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path / "work", cwd=tmp_path,
               script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_guard_allows_only_the_private_cache():
    common.guard_environment({"PATH": "/bin"})
    common.guard_environment({common.CACHE_ENV: "x"}, own_cache=True)
    for env in ({common.CACHE_ENV: "x"}, {"REPRO_ENGINE": "fast"}):
        with pytest.raises(common.BenchError):
            common.guard_environment(env)
    with pytest.raises(common.BenchError):
        common.guard_environment({"REPRO_TRACER": "scalar",
                                  common.CACHE_ENV: "x"}, own_cache=True)
