"""Trace-capture throughput: scalar reference tracer vs the fast tracer.

Measures wall-clock capture time per registered workload under both
``REPRO_TRACER`` modes at a mid-size budget — one row per workload for
each tier, the scalar ``Machine`` and the superblock tracer — one
headline cell at 10x that budget (where compiled superblocks amortise),
and a streaming demonstration: a paper-scale capture spooled through
:class:`~repro.trace.chunks.TraceChunkWriter` in a fresh subprocess so
its peak RSS can be read from the OS — the number that shows memory is
bounded by the chunk size, not the trace length.

Results land in ``benchmarks/results/BENCH_trace_capture.json``, and the
capture tables of ``docs/performance.md`` are re-rendered from them
(``--render`` does only that, from the committed record).  Knobs:

* ``BENCH_TRACE_BUDGET`` — per-workload budget (default 10^6);
* ``BENCH_TRACE_DEMO`` — streaming-demo budget (default 10^8 standalone,
  0 disables; the pytest wrapper defaults it to 0 to stay quick).

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

#: Streaming-demo subprocess body: capture with a bounded chunk writer,
#: report instruction count, records, wall-clock and peak RSS.
_DEMO_SCRIPT = r"""
import json, resource, sys, time
from repro.cpu.fast import FastMachine
from repro.trace.chunks import ChunkedTrace, TraceChunkWriter
from repro.workloads.registry import REGISTRY

name, budget, per_chunk, path = (sys.argv[1], int(sys.argv[2]),
                                 int(sys.argv[3]), sys.argv[4])
program = REGISTRY.program(name)
start = time.perf_counter()
with TraceChunkWriter(path, entry_pc=program.entry, name=name,
                      records_per_chunk=per_chunk) as writer:
    executed, halted, truncated = FastMachine(program).run_streaming(
        writer, max_instructions=budget, flush_records=per_chunk)
    writer.close(executed, truncated=truncated)
elapsed = time.perf_counter() - start
with ChunkedTrace(path) as trace:
    n_records, n_chunks = trace.n_records, trace.n_chunks
print(json.dumps({
    "instructions": executed,
    "records": n_records,
    "chunks": n_chunks,
    "elapsed_s": elapsed,
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


def run_headline(budget: int) -> dict:
    """One large-budget cell where compiled superblocks amortise."""
    scalar_s = _time_capture(HEADLINE_WORKLOAD, "scalar", budget)
    fast_s = _time_capture(HEADLINE_WORKLOAD, "fast", budget)
    print(f"headline {HEADLINE_WORKLOAD} @ {budget:.0e}: "
          f"scalar {scalar_s:.2f}s fast {fast_s:.2f}s "
          f"x{scalar_s / fast_s:.1f}")
    return {"workload": HEADLINE_WORKLOAD, "budget": budget,
            "scalar_s": round(scalar_s, 3), "fast_s": round(fast_s, 3),
            "speedup": round(scalar_s / fast_s, 2)}


def run_streaming_demo(budget: int, per_chunk: int = 1 << 20) -> dict:
    """Paper-scale chunked capture in a subprocess; peak RSS from the OS."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "demo.chunks")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", _DEMO_SCRIPT, HEADLINE_WORKLOAD,
             str(budget), str(per_chunk), path],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"streaming demo failed:\n{proc.stderr}")
        container_mb = Path(path).stat().st_size / 2**20 \
            if Path(path).exists() else None
    stats = json.loads(proc.stdout.splitlines()[-1])
    stats.update({
        "workload": HEADLINE_WORKLOAD,
        "budget": budget,
        "records_per_chunk": per_chunk,
        "container_mb": round(container_mb, 1) if container_mb else None,
        "mips": round(stats["instructions"] / stats["elapsed_s"] / 1e6,
                      1),
        "max_rss_mb": round(stats["max_rss_mb"], 1),
        "elapsed_s": round(stats["elapsed_s"], 2),
    })
    print(f"streaming {HEADLINE_WORKLOAD} @ {budget:.0e}: "
          f"{stats['elapsed_s']}s, {stats['mips']} Mips, "
          f"peak RSS {stats['max_rss_mb']} MiB, "
          f"{stats['chunks']} chunks")
    return stats


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
             f"(**{head['speedup']:.2f}×**) |"]
    demo = results.get("streaming_demo")
    if demo:
        lines.append(
            f"| Streaming demo: {demo['workload']} at "
            f"**{_exp(demo['budget'])}** | {demo['elapsed_s']:.1f} s, "
            f"{demo['mips']} M instructions/s, "
            f"{demo['records'] / 1e6:.2f} M records in {demo['chunks']} "
            f"chunks, **peak RSS {demo['max_rss_mb']:.0f} MiB** |")
    lines += ["", f"| Workload ({budget}) | `scalar` | `fast` | Speedup |",
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


def run_benchmark(demo_budget: int) -> dict:
    results = {"sweep": run_sweep(),
               "headline": run_headline(BUDGET * 10)}
    if demo_budget > 0:
        results["streaming_demo"] = run_streaming_demo(demo_budget)
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
    """Pytest entry: sweep + headline; demo only when opted in."""
    demo_budget = int(os.environ.get("BENCH_TRACE_DEMO", "0"))
    _check(run_benchmark(demo_budget))


if __name__ == "__main__":
    if sys.argv[1:] == ["--render"]:
        render_doc(json.loads(RESULTS_PATH.read_text()))
    else:
        demo = int(os.environ.get("BENCH_TRACE_DEMO", str(10**8)))
        _check(run_benchmark(demo))
