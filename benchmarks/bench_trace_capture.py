"""Trace-capture throughput: scalar reference tracer vs the fast tracer.

Measures wall-clock capture time per registered workload under both
``REPRO_TRACER`` modes at a mid-size budget — one row per workload for
each tier, the scalar ``Machine`` and the superblock tracer — and one
headline cell at 10x that budget (where compiled superblocks amortise).
The headline cell also reports the end-to-end peak RSS of turning that
budget into engine input: ``load_fetch_input`` plus
``compile_fetch_input`` on a cold temporary cache, in a fresh subprocess
so the peak can be read from the OS.

Results land in ``benchmarks/results/BENCH_trace_capture.json``, and the
capture tables of ``docs/performance.md`` are re-rendered from them
(``--render`` does only that, from the committed record).  The one knob
is ``BENCH_TRACE_BUDGET``, the per-workload budget (default 10^6).

Runs standalone (``python benchmarks/bench_trace_capture.py``) or under
pytest; either way it fails if the fast tracer loses to scalar on
geomean.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_trace_capture.json"
DOC_PATH = REPO_ROOT / "docs" / "performance.md"

#: Markers around the capture tables in ``DOC_PATH``; :func:`render_doc`
#: rewrites what lies between them from the results record.
TABLE_BEGIN = ("<!-- capture-table: rendered by "
               "benchmarks/bench_trace_capture.py -->")
TABLE_END = "<!-- /capture-table -->"

BUDGET = int(os.environ.get("BENCH_TRACE_BUDGET", "1000000"))
HEADLINE_WORKLOAD = "su2cor"

#: Headline peak-RSS subprocess body: capture, segment and compile one
#: workload on a cold cache, then report the process's peak RSS.
_RSS_SCRIPT = r"""
import json, resource, sys
from repro.core.kernels import compile_fetch_input
from repro.icache import CacheGeometry
from repro.workloads.registry import load_fetch_input

name, budget = sys.argv[1], int(sys.argv[2])
fetch_input = load_fetch_input(name, CacheGeometry.normal(8), budget)
compile_fetch_input(fetch_input, near_block=False)
print(json.dumps({
    "records": fetch_input.trace.n_records,
    "blocks": fetch_input.blocks.n_blocks,
    "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024.0,
}))
"""


def _time_capture(name: str, mode: str, budget: int) -> float:
    from repro.cpu import capture_machine
    from repro.qa.oracle import tracer_mode_env
    from repro.workloads.registry import REGISTRY

    program = REGISTRY.program(name)
    with tracer_mode_env(mode):
        start = time.perf_counter()
        capture_machine(program).run(max_instructions=budget)
        return time.perf_counter() - start


def run_sweep(budget: int = BUDGET) -> dict:
    """Scalar-vs-fast capture timings for every registered workload."""
    from repro.workloads.registry import workload_names

    rows = {}
    for name in workload_names():
        scalar_s = _time_capture(name, "scalar", budget)
        fast_s = _time_capture(name, "fast", budget)
        rows[name] = {
            "scalar_s": round(scalar_s, 4),
            "fast_s": round(fast_s, 4),
            "speedup": round(scalar_s / fast_s, 2),
        }
        print(f"{name:10s} scalar {scalar_s:7.3f}s  fast {fast_s:7.3f}s"
              f"  x{scalar_s / fast_s:5.2f}")
    geomean = math.exp(sum(math.log(r["speedup"]) for r in rows.values())
                       / len(rows))
    return {"budget": budget, "workloads": rows,
            "geomean_speedup": round(geomean, 2)}


def _peak_rss_mb(name: str, budget: int) -> float:
    """Cold-cache fetch input plus compile in a subprocess; peak RSS."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_CACHE_DIR=tmp)
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_SCRIPT, name, str(budget)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["max_rss_mb"]


def run_headline(budget: int) -> dict:
    """One large-budget cell where compiled superblocks amortise."""
    scalar_s = _time_capture(HEADLINE_WORKLOAD, "scalar", budget)
    fast_s = _time_capture(HEADLINE_WORKLOAD, "fast", budget)
    max_rss_mb = _peak_rss_mb(HEADLINE_WORKLOAD, budget)
    print(f"headline {HEADLINE_WORKLOAD} @ {budget:.0e}: "
          f"scalar {scalar_s:.2f}s fast {fast_s:.2f}s "
          f"x{scalar_s / fast_s:.1f}, "
          f"end-to-end peak RSS {max_rss_mb:.0f} MiB")
    return {"workload": HEADLINE_WORKLOAD, "budget": budget,
            "scalar_s": round(scalar_s, 3), "fast_s": round(fast_s, 3),
            "speedup": round(scalar_s / fast_s, 2),
            "max_rss_mb": round(max_rss_mb, 1)}


def _exp(n: int) -> str:
    """``10^k`` for exact powers of ten, the plain count otherwise."""
    k = round(math.log10(n))
    return f"10^{k}" if 10 ** k == n else f"{n:,}"


def capture_tables(results: dict) -> str:
    """Markdown summary and per-workload tables for ``results``."""
    sweep, head = results["sweep"], results["headline"]
    rows = sweep["workloads"]
    budget = _exp(sweep["budget"])
    best = max(rows, key=lambda n: rows[n]["speedup"])
    worst = min(rows, key=lambda n: rows[n]["speedup"])
    lines = ["| Measurement | Result |", "| --- | --- |",
             f"| Geomean over all {len(rows)} workloads, {budget} | "
             f"**{sweep['geomean_speedup']:.2f}×** |",
             f"| Best cell ({best}), {budget} | "
             f"{rows[best]['speedup']:.2f}× |",
             f"| Worst cell ({worst}), {budget} | "
             f"{rows[worst]['speedup']:.2f}× |",
             f"| Headline: {head['workload']} at {_exp(head['budget'])} | "
             f"{head['scalar_s']:.2f} s → {head['fast_s']:.2f} s "
             f"(**{head['speedup']:.2f}×**); end-to-end peak RSS "
             f"{head['max_rss_mb']:.0f} MiB |",
             "", f"| Workload ({budget}) | `scalar` | `fast` | Speedup |",
             "| --- | --- | --- | --- |"]
    for name in sorted(rows):
        row = rows[name]
        lines.append(f"| {name} | {row['scalar_s']:.3f} s | "
                     f"{row['fast_s']:.3f} s | {row['speedup']:.2f}× |")
    return "\n".join(lines)


def render_doc(results: dict) -> None:
    """Rewrite the capture tables in ``docs/performance.md``."""
    text = DOC_PATH.read_text()
    head, rest = text.split(TABLE_BEGIN, 1)
    _, tail = rest.split(TABLE_END, 1)
    DOC_PATH.write_text(f"{head}{TABLE_BEGIN}\n{capture_tables(results)}"
                        f"\n{TABLE_END}{tail}")


def run_benchmark() -> dict:
    results = {"sweep": run_sweep(),
               "headline": run_headline(BUDGET * 10)}
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                            + "\n")
    render_doc(results)
    print(f"results -> {RESULTS_PATH}")
    return results


def _check(results: dict) -> None:
    assert results["sweep"]["geomean_speedup"] > 1.0, \
        "fast tracer lost to scalar on geomean"


def test_trace_capture_benchmark():
    """Pytest entry: the sweep and the headline cell."""
    _check(run_benchmark())


if __name__ == "__main__":
    if sys.argv[1:] == ["--render"]:
        render_doc(json.loads(RESULTS_PATH.read_text()))
    else:
        _check(run_benchmark())
