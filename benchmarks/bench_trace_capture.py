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

Every step runs in a fresh subprocess on one source tree.  With
``--against REV`` the same steps also run on a checkout of git revision
``REV`` (its committed files, exported to a temporary directory),
alternating with the working tree step by step, so both columns come
from the same host in the same minutes; the record then holds both
columns, and the docs table shows the fast tracer's delta against
``REV``.  The host (``nproc``, CPU model) is recorded either way.

Results land in ``benchmarks/results/BENCH_trace_capture.json``, and the
capture tables of ``docs/performance.md`` are re-rendered from them
(``--render`` does only that, from the committed record).  The one knob
is ``BENCH_TRACE_BUDGET``, the per-workload budget (default 10^6).

Runs standalone (``python benchmarks/bench_trace_capture.py [--against
REV]``) or under pytest; either way it fails if the fast tracer loses
to scalar on geomean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, Optional

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

#: One measurement step, run in a fresh interpreter on one source tree:
#: ``capture`` times both tracers on one workload (and optionally
#: segments the fast trace under normal(8)); ``segment`` times
#: ``segment_blocks`` per geometry over the SPEC95 analogs.
_STEP_SCRIPT = r"""
import json, sys, time
from repro.cpu import capture_machine
from repro.icache import CacheGeometry
from repro.qa.oracle import tracer_mode_env
from repro.trace import segment_blocks
from repro.workloads import SPEC95
from repro.workloads.registry import REGISTRY

def capture(name, mode, budget):
    program = REGISTRY.program(name)
    with tracer_mode_env(mode):
        start = time.perf_counter()
        trace = capture_machine(program).run(max_instructions=budget).trace
        return time.perf_counter() - start, trace

def segment(trace, kind):
    geometry = getattr(CacheGeometry, kind)(8)
    start = time.perf_counter()
    blocks = segment_blocks(trace, geometry)
    return time.perf_counter() - start, blocks.n_blocks

step = json.loads(sys.argv[1])
out = {}
if step["step"] == "capture":
    out["scalar_s"] = capture(step["name"], "scalar", step["budget"])[0]
    out["fast_s"], trace = capture(step["name"], "fast", step["budget"])
    if step.get("segment"):
        out["segment_s"] = segment(trace, "normal")[0]
else:
    out = {kind: [0.0, 0] for kind in step["geometries"]}
    for name in SPEC95:
        trace = capture(name, "fast", step["budget"])[1]
        for kind in step["geometries"]:
            seconds, blocks = segment(trace, kind)
            out[kind][0] += seconds
            out[kind][1] += blocks
    out["workloads"] = len(SPEC95)
print(json.dumps(out))
"""

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


def _run(tree: Path, args: list, env: Optional[dict] = None) -> dict:
    """Run ``python args`` on ``tree``'s sources; its last line as JSON."""
    env = dict(os.environ if env is None else env,
               PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"step on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _step(tree: Path, **step) -> dict:
    return _run(tree, ["-c", _STEP_SCRIPT, json.dumps(step)])


def _peak_rss_mb(tree: Path, name: str, budget: int) -> float:
    """Cold-cache fetch input plus compile in a subprocess; peak RSS."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, REPRO_CACHE_DIR=tmp)
        return _run(tree, ["-c", _RSS_SCRIPT, name, str(budget)],
                    env)["max_rss_mb"]


def _alternate(trees: Dict[str, Path], index: int, measure) -> dict:
    """``measure(tree)`` per tree, the first tree to run alternating."""
    order = list(trees) if index % 2 == 0 else list(trees)[::-1]
    return {label: measure(trees[label]) for label in order}


def _capture_row(result: dict) -> dict:
    return {"scalar_s": round(result["scalar_s"], 4),
            "fast_s": round(result["fast_s"], 4),
            "speedup": round(result["scalar_s"] / result["fast_s"], 2)}


def _geomean(rows: dict) -> float:
    return round(math.exp(sum(math.log(r["speedup"]) for r in rows.values())
                          / len(rows)), 2)


def run_sweep(trees: Dict[str, Path], budget: int = BUDGET) -> dict:
    """Scalar-vs-fast capture timings for every registered workload."""
    from repro.workloads.registry import workload_names

    rows: Dict[str, dict] = {label: {} for label in trees}
    for i, name in enumerate(workload_names()):
        results = _alternate(trees, i, lambda tree: _step(
            tree, step="capture", name=name, budget=budget))
        line = f"{name:10s}"
        for label, result in results.items():
            rows[label][name] = row = _capture_row(result)
            line += (f"  {label}: scalar {row['scalar_s']:7.3f}s fast "
                     f"{row['fast_s']:7.3f}s x{row['speedup']:5.2f}")
        print(line)
    return {label: {"budget": budget, "workloads": by_name,
                    "geomean_speedup": _geomean(by_name)}
            for label, by_name in rows.items()}


def run_segment(trees: Dict[str, Path], budget: int = BUDGET) -> dict:
    """Segmentation seconds per geometry, summed over the SPEC95 analogs."""
    results = _alternate(trees, 0, lambda tree: _step(
        tree, step="segment", budget=budget,
        geometries=list(SEGMENT_GEOMETRIES)))
    out = {}
    for label, result in results.items():
        geometries = {}
        for kind in SEGMENT_GEOMETRIES:
            seconds, blocks = result[kind]
            geometries[kind] = {"seconds": round(seconds, 4),
                                "blocks": blocks,
                                "blocks_per_s": round(blocks / seconds)}
            print(f"{label}: segment {kind:12s} {seconds:6.3f}s  "
                  f"{blocks:9d} blocks")
        out[label] = {"budget": budget, "workloads": result["workloads"],
                      "geometries": geometries}
    return out


def run_headline(trees: Dict[str, Path], budget: int) -> dict:
    """One large-budget cell where compiled superblocks amortise."""
    def measure(tree):
        result = _step(tree, step="capture", name=HEADLINE_WORKLOAD,
                       budget=budget, segment=True)
        return dict(_capture_row(result), workload=HEADLINE_WORKLOAD,
                    budget=budget, segment_s=round(result["segment_s"], 3),
                    max_rss_mb=round(_peak_rss_mb(
                        tree, HEADLINE_WORKLOAD, budget), 1))

    out = _alternate(trees, 1, measure)
    for label, head in out.items():
        print(f"{label}: headline {HEADLINE_WORKLOAD} @ {budget:.0e}: "
              f"scalar {head['scalar_s']:.2f}s fast {head['fast_s']:.2f}s "
              f"x{head['speedup']:.1f}, segment {head['segment_s']:.2f}s, "
              f"end-to-end peak RSS {head['max_rss_mb']:.0f} MiB")
    return out


def host() -> dict:
    """The measuring host: CPU count and model, Python version."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(line.split(":", 1)[1].strip() for line in cpuinfo
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version()}


def _exp(n: int) -> str:
    """``10^k`` for exact powers of ten, the plain count otherwise."""
    k = round(math.log10(n))
    return f"10^{k}" if 10 ** k == n else f"{n:,}"


def _delta(new: float, old: float) -> str:
    return f"{(new - old) / old * 100:+.0f}%"


def capture_tables(results: dict) -> str:
    """Markdown summary, per-workload and segmentation tables."""
    sweep, head = results["sweep"], results["headline"]
    segment = results["segment"]
    base = results.get("against")
    rows = sweep["workloads"]
    budget = _exp(sweep["budget"])
    best = max(rows, key=lambda n: rows[n]["speedup"])
    worst = min(rows, key=lambda n: rows[n]["speedup"])
    geomean = f"**{sweep['geomean_speedup']:.2f}×**"
    headline = (f"{head['scalar_s']:.2f} s → {head['fast_s']:.2f} s "
                f"(**{head['speedup']:.2f}×**)")
    if base:
        old_head = base["headline"]
        geomean += (f" (`{base['rev']}`: "
                    f"{base['sweep']['geomean_speedup']:.2f}×)")
        headline += (f"; `{base['rev']}` fast {old_head['fast_s']:.2f} s "
                     f"({old_head['speedup']:.2f}×), "
                     f"{_delta(head['fast_s'], old_head['fast_s'])}")
    lines = ["| Measurement | Result |", "| --- | --- |",
             f"| Host | {results['host']['nproc']} × "
             f"{results['host']['cpu']}, Python "
             f"{results['host']['python']} |",
             f"| Geomean over all {len(rows)} workloads, {budget} | "
             f"{geomean} |",
             f"| Best cell ({best}), {budget} | "
             f"{rows[best]['speedup']:.2f}× |",
             f"| Worst cell ({worst}), {budget} | "
             f"{rows[worst]['speedup']:.2f}× |",
             f"| Headline: {head['workload']} at {_exp(head['budget'])} | "
             f"{headline}; end-to-end peak RSS "
             f"{head['max_rss_mb']:.0f} MiB; `segment_blocks` "
             f"{head['segment_s']:.2f} s |", ""]
    if base:
        old_rows = base["sweep"]["workloads"]
        lines += [f"| Workload ({budget}) | `scalar` | `fast` at "
                  f"`{base['rev']}` | `fast` | Speedup | `fast` vs "
                  f"`{base['rev']}` |",
                  "| --- | --- | --- | --- | --- | --- |"]
        for name in sorted(rows):
            row, old = rows[name], old_rows[name]
            lines.append(f"| {name} | {row['scalar_s']:.3f} s | "
                         f"{old['fast_s']:.3f} s | {row['fast_s']:.3f} s | "
                         f"{row['speedup']:.2f}× | "
                         f"{_delta(row['fast_s'], old['fast_s'])} |")
    else:
        lines += [f"| Workload ({budget}) | `scalar` | `fast` | Speedup |",
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


def _export(rev: str, into: Path) -> str:
    """Extract the committed files of ``rev`` into ``into``; its sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         cwd=REPO_ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "archive", sha], cwd=REPO_ROOT,
                       stdout=archive, check=True)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(into, filter="data")
    return sha


def run_benchmark(against: Optional[str] = None) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"working": REPO_ROOT}
        if against:
            sha = _export(against, Path(tmp))
            trees["against"] = Path(tmp)
        sweep = run_sweep(trees)
        segment = run_segment(trees)
        headline = run_headline(trees, BUDGET * 10)
    results = {"host": host(), "sweep": sweep["working"],
               "segment": segment["working"],
               "headline": headline["working"]}
    if against:
        results["against"] = {"rev": against, "commit": sha,
                              "sweep": sweep["against"],
                              "segment": segment["against"],
                              "headline": headline["against"]}
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--render", action="store_true",
                        help="only re-render the docs tables from the "
                             "committed record")
    parser.add_argument("--against", metavar="REV",
                        help="also run every step on git revision REV, "
                             "alternating with the working tree")
    args = parser.parse_args(argv)
    if args.render:
        render_doc(json.loads(RESULTS_PATH.read_text()))
    else:
        _check(run_benchmark(args.against))


if __name__ == "__main__":
    main()
