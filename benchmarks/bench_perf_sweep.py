"""Runtime performance — cache states, parallel fan-out, engine kernels.

Unlike the figure/table benchmarks this one measures wall-clock, not
paper metrics: each scenario runs ``python -m repro <figure>`` in a
fresh subprocess so interpreter start-up, cache population, and worker
fan-out are all included.  Three scenario groups:

* **Cache states** (``fig6``): ``cold`` — empty ``REPRO_CACHE_DIR``,
  traces interpreted and segmented from scratch; ``warm`` — second run,
  everything loads from disk; ``parallel`` — warm cache plus
  ``REPRO_JOBS=auto``, measured only when the host actually has more
  than one CPU (on a single-CPU host it would just duplicate ``warm``).
* **Engine kernels** (``fig8`` + ``fig9``, warm cache): the same sweeps
  under ``REPRO_ENGINE=scalar`` (reference loops) and
  ``REPRO_ENGINE=fast`` (vectorized kernels).  Both modes print
  byte-identical figures — the comparison is pure wall-clock.
* **Kernel backends** (same warm sweeps): ``REPRO_ENGINE=fast`` under
  every ``REPRO_BACKEND`` available in this interpreter, so the
  compiled tier gets its own rows.

Results land in ``benchmarks/results/BENCH_perf_sweep.json`` as one
machine-readable record: per-figure wall-clock, engine mode, backend
and cache state for every scenario, plus the scalar/fast and
per-backend speedups.  The module runs standalone
(``python benchmarks/bench_perf_sweep.py``) or under pytest; either way
it fails if the fast engine regresses below scalar or the compiled
backend regresses below numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_perf_sweep.json"
BUDGET = int(os.environ.get("REPRO_TRACE_LEN", "120000"))

#: Repeats per backend-comparison cell; the row records the minimum
#: (subprocess wall-clock on shared hosts is noisy, the minimum is the
#: stable statistic).  The scalar rows stay single-shot — at the
#: default budget the scalar fig8 sweep alone runs for minutes.
BACKEND_REPEATS = int(os.environ.get("BENCH_BACKEND_REPEATS", "3"))

#: The engine-kernel comparison sweeps (the paper's headline figures).
ENGINE_FIGURES = ("fig8", "fig9")


def _available_backends() -> list:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.core.backends import available_backends
        return list(available_backends())
    finally:
        sys.path.pop(0)


def _run_figure(figure: str, cache_dir: str, jobs: str = "1",
                engine: str = "fast", backend: str = "numpy") -> float:
    env = dict(os.environ,
               PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_CACHE_DIR=cache_dir,
               REPRO_JOBS=jobs,
               REPRO_ENGINE=engine,
               REPRO_BACKEND=backend,
               REPRO_TRACE_LEN=str(BUDGET))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", figure],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{figure} failed:\n{proc.stderr}")
    return elapsed


def _scenario(figure: str, engine: str, cache: str, jobs: int,
              seconds: float, backend: str = "numpy") -> dict:
    return {"figure": figure, "engine": engine, "backend": backend,
            "cache": cache, "jobs": jobs, "seconds": round(seconds, 3)}


def measure() -> dict:
    n_cpus = os.cpu_count() or 1
    backends = _available_backends()
    scenarios = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        cold = _run_figure("fig6", cache_dir)
        warm = _run_figure("fig6", cache_dir)
        scenarios.append(_scenario("fig6", "fast", "cold", 1, cold))
        scenarios.append(_scenario("fig6", "fast", "warm", 1, warm))
        parallel = None
        if n_cpus > 1:
            parallel = _run_figure("fig6", cache_dir, jobs="auto")
            scenarios.append(_scenario("fig6", "fast", "warm", n_cpus,
                                       parallel))

        # Engine-kernel comparison: warm everything first (including the
        # compiled block arrays) so all modes measure pure engine time.
        for figure in ENGINE_FIGURES:
            _run_figure(figure, cache_dir)
        scalar_s = 0.0
        for figure in ENGINE_FIGURES:
            t = _run_figure(figure, cache_dir, engine="scalar")
            scenarios.append(_scenario(figure, "scalar", "warm", 1, t))
            scalar_s += t
        backend_s = {}
        for backend in backends:
            total = 0.0
            for figure in ENGINE_FIGURES:
                times = [_run_figure(figure, cache_dir, backend=backend)
                         for _ in range(BACKEND_REPEATS)]
                t = min(times)
                row = _scenario(figure, "fast", "warm", 1, t,
                                backend=backend)
                row["repeats"] = [round(x, 3) for x in times]
                scenarios.append(row)
                total += t
            backend_s[backend] = total
    fast_s = backend_s["numpy"]
    return {
        "budget": BUDGET,
        "cpus": n_cpus,
        "scenarios": scenarios,
        "cold_s": round(cold, 3),
        "warm_s": round(warm, 3),
        "parallel_s": None if parallel is None else round(parallel, 3),
        "parallel_skipped": (None if parallel is not None
                             else "single-CPU host"),
        "warm_speedup": round(cold / warm, 2),
        "parallel_speedup": (None if parallel is None
                             else round(cold / parallel, 2)),
        "engine_comparison": {
            "figures": list(ENGINE_FIGURES),
            "cache": "warm",
            "scalar_s": round(scalar_s, 3),
            "fast_s": round(fast_s, 3),
            "fast_speedup": round(scalar_s / fast_s, 2),
            "backends": {
                name: {
                    "seconds": round(total, 3),
                    "speedup_vs_scalar": round(scalar_s / total, 2),
                    "speedup_vs_numpy": round(fast_s / total, 2),
                }
                for name, total in backend_s.items()
            },
        },
    }


def _record(results: dict) -> None:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


def _check(results: dict) -> None:
    # A warm cache must beat interpreting every trace from scratch, the
    # vectorized engine must never regress below the scalar loops, and
    # the compiled backend must never regress below plain numpy.
    assert results["warm_s"] < results["cold_s"]
    comparison = results["engine_comparison"]
    assert comparison["fast_s"] < comparison["scalar_s"], (
        f"fast engine regressed: {comparison['fast_s']}s vs scalar "
        f"{comparison['scalar_s']}s")
    backends = comparison["backends"]
    if "compiled" in backends:
        assert (backends["compiled"]["seconds"]
                < backends["numpy"]["seconds"]), (
            f"compiled backend regressed: "
            f"{backends['compiled']['seconds']}s vs numpy "
            f"{backends['numpy']['seconds']}s")
    seen = set()
    for scenario in results["scenarios"]:
        key = (scenario["figure"], scenario["engine"],
               scenario["backend"], scenario["cache"], scenario["jobs"])
        assert key not in seen, f"duplicate scenario row: {key}"
        seen.add(key)


def test_perf_sweep(benchmark, results_dir):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    _record(results)
    benchmark.extra_info.update(results)
    _check(results)


if __name__ == "__main__":
    results = measure()
    _record(results)
    _check(results)
