"""Trace-capture throughput: scalar reference tracer vs the fast tracer.

Measures wall-clock capture time per registered workload under both
``REPRO_TRACER`` modes at a mid-size budget — one row per workload for
each tier, the scalar ``Machine`` and the superblock tracer — and one
headline cell at 10x that budget (where compiled superblocks amortise).
The headline cell also reports the end-to-end peak RSS of turning that
budget into engine input: ``load_fetch_input`` plus
``compile_fetch_input`` on a cold temporary cache, in a fresh subprocess
so the peak can be read from the OS.

A ``segment`` section times ``segment_blocks`` on the fast tracer's
traces: summed over the 18 SPEC95 analogs at the sweep budget, once per
paper cache geometry (Table 6), plus the headline trace under normal(8).

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

#: The paper's three cache geometries (Table 6), by name.
SEGMENT_GEOMETRIES = ("normal", "extended", "self_aligned")

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


def _time_capture(name: str, mode: str, budget: int) -> tuple:
    """Capture seconds and the captured trace."""
    from repro.cpu import capture_machine
    from repro.qa.oracle import tracer_mode_env
    from repro.workloads.registry import REGISTRY

    program = REGISTRY.program(name)
    with tracer_mode_env(mode):
        start = time.perf_counter()
        trace = capture_machine(program).run(max_instructions=budget).trace
        return time.perf_counter() - start, trace


def _time_segment(trace, kind: str) -> tuple:
    """``segment_blocks`` seconds and block count under ``kind``(8)."""
    from repro.icache import CacheGeometry
    from repro.trace import segment_blocks

    geometry = getattr(CacheGeometry, kind)(8)
    start = time.perf_counter()
    blocks = segment_blocks(trace, geometry)
    return time.perf_counter() - start, blocks.n_blocks


def run_sweep(budget: int = BUDGET) -> dict:
    """Scalar-vs-fast capture timings for every registered workload."""
    from repro.workloads.registry import workload_names

    rows = {}
    for name in workload_names():
        scalar_s = _time_capture(name, "scalar", budget)[0]
        fast_s = _time_capture(name, "fast", budget)[0]
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


def run_segment(budget: int = BUDGET) -> dict:
    """Segmentation seconds per geometry, summed over the SPEC95 analogs."""
    from repro.workloads import SPEC95

    totals = {kind: [0.0, 0] for kind in SEGMENT_GEOMETRIES}
    for name in SPEC95:
        _, trace = _time_capture(name, "fast", budget)
        for kind in SEGMENT_GEOMETRIES:
            seconds, blocks = _time_segment(trace, kind)
            totals[kind][0] += seconds
            totals[kind][1] += blocks
    geometries = {}
    for kind, (seconds, blocks) in totals.items():
        geometries[kind] = {"seconds": round(seconds, 4), "blocks": blocks,
                            "blocks_per_s": round(blocks / seconds)}
        print(f"segment {kind:12s} {seconds:6.3f}s  {blocks:9d} blocks")
    return {"budget": budget, "workloads": len(SPEC95),
            "geometries": geometries}


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
    scalar_s = _time_capture(HEADLINE_WORKLOAD, "scalar", budget)[0]
    fast_s, trace = _time_capture(HEADLINE_WORKLOAD, "fast", budget)
    segment_s = _time_segment(trace, "normal")[0]
    del trace
    max_rss_mb = _peak_rss_mb(HEADLINE_WORKLOAD, budget)
    print(f"headline {HEADLINE_WORKLOAD} @ {budget:.0e}: "
          f"scalar {scalar_s:.2f}s fast {fast_s:.2f}s "
          f"x{scalar_s / fast_s:.1f}, segment {segment_s:.2f}s, "
          f"end-to-end peak RSS {max_rss_mb:.0f} MiB")
    return {"workload": HEADLINE_WORKLOAD, "budget": budget,
            "scalar_s": round(scalar_s, 3), "fast_s": round(fast_s, 3),
            "speedup": round(scalar_s / fast_s, 2),
            "segment_s": round(segment_s, 3),
            "max_rss_mb": round(max_rss_mb, 1)}


def _exp(n: int) -> str:
    """``10^k`` for exact powers of ten, the plain count otherwise."""
    k = round(math.log10(n))
    return f"10^{k}" if 10 ** k == n else f"{n:,}"


def capture_tables(results: dict) -> str:
    """Markdown summary, per-workload and segmentation tables."""
    sweep, head = results["sweep"], results["headline"]
    segment = results["segment"]
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
             f"{head['max_rss_mb']:.0f} MiB; `segment_blocks` "
             f"{head['segment_s']:.2f} s |",
             "", f"| Workload ({budget}) | `scalar` | `fast` | Speedup |",
             "| --- | --- | --- | --- |"]
    for name in sorted(rows):
        row = rows[name]
        lines.append(f"| {name} | {row['scalar_s']:.3f} s | "
                     f"{row['fast_s']:.3f} s | {row['speedup']:.2f}× |")
    lines += ["", f"| Geometry ({segment['workloads']} analogs, "
              f"{_exp(segment['budget'])}) | Blocks | `segment_blocks` | "
              "Blocks/s |", "| --- | --- | --- | --- |"]
    for kind, row in segment["geometries"].items():
        lines.append(f"| {kind}(8) | {row['blocks']:,} | "
                     f"{row['seconds']:.3f} s | "
                     f"{row['blocks_per_s'] / 1e6:.1f} M |")
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
               "segment": run_segment(),
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
