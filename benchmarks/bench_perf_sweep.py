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
* **Engine kernels** (``fig7`` + ``fig8`` + ``fig9``, warm cache): the
  same sweeps under ``REPRO_ENGINE=scalar`` (reference loops) and
  ``REPRO_ENGINE=fast`` (vectorized kernels).  Both modes print
  byte-identical figures — the comparison is pure wall-clock.

Results land in ``benchmarks/results/BENCH_perf_sweep.json`` as one
machine-readable record: per-figure wall-clock, engine mode and cache
state for every scenario, plus the scalar/fast speedup.  Each row also
records the subprocess's system time (``sys_s``) and minor page faults
(``minflt``), read from ``RUSAGE_CHILDREN`` around it, which show how
much of a run went to the kernel handing out fresh memory.  The module
runs standalone (``python benchmarks/bench_perf_sweep.py``) or under
pytest; either way it fails if the fast engine regresses below scalar,
and it re-renders the fig6 wall-clock table and the engine table of
``docs/performance.md`` from the record (``--render`` does only that,
from the committed record).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_perf_sweep.json"
DOC_PATH = REPO_ROOT / "docs" / "performance.md"

#: Markers around the rendered tables in ``DOC_PATH``; :func:`render_doc`
#: rewrites what lies between each pair from the results record.
FIG6_BEGIN = ("<!-- fig6-table: rendered by "
              "benchmarks/bench_perf_sweep.py -->")
FIG6_END = "<!-- /fig6-table -->"
TABLE_BEGIN = ("<!-- engine-table: rendered by "
               "benchmarks/bench_perf_sweep.py -->")
TABLE_END = "<!-- /engine-table -->"
BUDGET = int(os.environ.get("REPRO_TRACE_LEN", "120000"))

#: Repeats per fast-engine cell; the row records the minimum
#: (subprocess wall-clock on shared hosts is noisy, the minimum is the
#: stable statistic).  The scalar rows stay single-shot — at the
#: default budget the scalar fig8 sweep alone runs for minutes.
FAST_REPEATS = int(os.environ.get("BENCH_FAST_REPEATS", "3"))

#: The engine-kernel comparison sweeps: the paper's headline figures,
#: and Figure 7, the one sweep that reads the separate BIT table.
ENGINE_FIGURES = ("fig7", "fig8", "fig9")


def _run_figure(figure: str, cache_dir: str, jobs: str = "1",
                engine: str = "fast") -> dict:
    """Run one figure; its wall-clock, system time and minor faults."""
    env = dict(os.environ,
               PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_CACHE_DIR=cache_dir,
               REPRO_JOBS=jobs,
               REPRO_ENGINE=engine,
               REPRO_TRACE_LEN=str(BUDGET))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", figure],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise RuntimeError(f"{figure} failed:\n{proc.stderr}")
    return {"seconds": round(elapsed, 3),
            "sys_s": round(after.ru_stime - before.ru_stime, 3),
            "minflt": after.ru_minflt - before.ru_minflt}


def _scenario(figure: str, engine: str, cache: str, jobs: int,
              run: dict) -> dict:
    return {"figure": figure, "engine": engine, "cache": cache,
            "jobs": jobs, **run}


def measure() -> dict:
    n_cpus = os.cpu_count() or 1
    scenarios = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        cold = _run_figure("fig6", cache_dir)
        warm = _run_figure("fig6", cache_dir)
        scenarios.append(_scenario("fig6", "fast", "cold", 1, cold))
        scenarios.append(_scenario("fig6", "fast", "warm", 1, warm))
        cold, warm = cold["seconds"], warm["seconds"]
        parallel = None
        if n_cpus > 1:
            run = _run_figure("fig6", cache_dir, jobs="auto")
            scenarios.append(_scenario("fig6", "fast", "warm", n_cpus,
                                       run))
            parallel = run["seconds"]

        # Engine-kernel comparison: warm everything first (including the
        # compiled block arrays) so all modes measure pure engine time.
        for figure in ENGINE_FIGURES:
            _run_figure(figure, cache_dir)
        scalar_s = 0.0
        for figure in ENGINE_FIGURES:
            run = _run_figure(figure, cache_dir, engine="scalar")
            scenarios.append(_scenario(figure, "scalar", "warm", 1, run))
            scalar_s += run["seconds"]
        fast_s = 0.0
        for figure in ENGINE_FIGURES:
            runs = [_run_figure(figure, cache_dir)
                    for _ in range(FAST_REPEATS)]
            best = min(runs, key=lambda run: run["seconds"])
            row = _scenario(figure, "fast", "warm", 1, best)
            row["repeats"] = [run["seconds"] for run in runs]
            scenarios.append(row)
            fast_s += best["seconds"]
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
        },
    }


def _cost(row: dict) -> str:
    """A row's system time and minor page faults as table cells."""
    return f"{row['sys_s']:.2f} s | {row['minflt']:,}"


def fig6_table(results: dict) -> str:
    """Markdown cold/warm/parallel fig6 table of one results record."""
    budget = f"{results['budget']:,}".replace(",", " ")
    rows = {(row["cache"], row["jobs"]): row
            for row in results["scenarios"] if row["figure"] == "fig6"}
    lines = [f"`python -m repro fig6` at a {budget}-instruction budget on "
             f"a {results['cpus']}-CPU host (subprocess wall-clock, "
             f"system time and minor page faults):",
             "",
             "| Scenario | Wall-clock | vs. cold | System | Minor faults |",
             "| --- | --- | --- | --- | --- |",
             f"| Cold cache, serial | {results['cold_s']:.2f} s | 1.00× "
             f"| {_cost(rows[('cold', 1)])} |",
             f"| Warm cache, serial | {results['warm_s']:.2f} s "
             f"| {results['warm_speedup']:.2f}× "
             f"| {_cost(rows[('warm', 1)])} |"]
    if results["parallel_s"] is not None:
        lines.append(f"| Warm cache, `REPRO_JOBS=auto` ({results['cpus']} "
                     f"workers) | {results['parallel_s']:.2f} s "
                     f"| {results['parallel_speedup']:.2f}× "
                     f"| {_cost(rows[('warm', results['cpus'])])} |")
    else:
        lines.append(f"| Warm cache, `REPRO_JOBS=auto` | not measured "
                     f"({results['parallel_skipped']}) | | | |")
    return "\n".join(lines)


def engine_table(results: dict) -> str:
    """Markdown scalar-vs-fast table of one results record."""
    rows = {(row["figure"], row["engine"]): row
            for row in results["scenarios"] if row["cache"] == "warm"}
    comparison = results["engine_comparison"]
    lines = ["| Sweep | `scalar` | `fast` | Speedup "
             "| `fast` system | `fast` minor faults |",
             "| --- | --- | --- | --- | --- | --- |"]
    for figure in comparison["figures"]:
        scalar = rows[(figure, "scalar")]["seconds"]
        fast = rows[(figure, "fast")]
        lines.append(f"| {figure} | {scalar:.1f} s "
                     f"| {fast['seconds']:.2f} s "
                     f"| {scalar / fast['seconds']:.1f}× | {_cost(fast)} |")
    lines.append(f"| {' + '.join(comparison['figures'])} | "
                 f"{comparison['scalar_s']:.1f} s | "
                 f"{comparison['fast_s']:.2f} s | "
                 f"**{comparison['fast_speedup']:.2f}×** | | |")
    return "\n".join(lines)


def _splice(text: str, begin: str, end: str, body: str) -> str:
    """``text`` with what lies between ``begin`` and ``end`` replaced."""
    head, rest = text.split(begin, 1)
    _, tail = rest.split(end, 1)
    return f"{head}{begin}\n{body}\n{end}{tail}"


def render_doc(results: dict) -> None:
    """Rewrite the fig6 and engine tables in ``docs/performance.md``."""
    text = _splice(DOC_PATH.read_text(), FIG6_BEGIN, FIG6_END,
                   fig6_table(results))
    DOC_PATH.write_text(_splice(text, TABLE_BEGIN, TABLE_END,
                                engine_table(results)))


def _record(results: dict) -> None:
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")
    render_doc(results)
    print(json.dumps(results, indent=2))


def _check(results: dict) -> None:
    # A warm cache must beat interpreting every trace from scratch, and
    # the vectorized engine must never regress below the scalar loops.
    assert results["warm_s"] < results["cold_s"]
    comparison = results["engine_comparison"]
    assert comparison["fast_s"] < comparison["scalar_s"], (
        f"fast engine regressed: {comparison['fast_s']}s vs scalar "
        f"{comparison['scalar_s']}s")
    seen = set()
    for scenario in results["scenarios"]:
        key = (scenario["figure"], scenario["engine"], scenario["cache"],
               scenario["jobs"])
        assert key not in seen, f"duplicate scenario row: {key}"
        seen.add(key)


def test_perf_sweep(benchmark, results_dir):
    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    _record(results)
    benchmark.extra_info.update(results)
    _check(results)


if __name__ == "__main__":
    if sys.argv[1:] == ["--render"]:
        render_doc(json.loads(RESULTS_PATH.read_text()))
    else:
        results = measure()
        _record(results)
        _check(results)
