#!/usr/bin/env python3
"""Steadiness check: run workloads N times and report each metric's spread.

    python3 perfbench/steady.py --workload sweep-warm --runs 10 --sets 2
    python3 perfbench/steady.py --seeds same --runs 10

With ``--seeds distinct`` (the default) run *i* of a set uses seed
``DEFAULT_SEED + i``, and a second set repeats the same seeds; each
spread then mixes the work of different seeds with run-to-run noise,
as a check over many seeds sees it.  With ``--seeds same`` every run of
a group uses one seed, the default seed and then the held-out seed, so
the spread is run-to-run noise alone, which is what a comparison of
two commits at one seed sees.

For every metric the command prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
interquartile distance over the median, against the metric's bound:
``BENCHMARK.json`` for the end-to-end metrics, and
``common.WORKLOAD_METRICS`` for the workload-specific ones.  A spread
above a third of its bound is flagged ``WIDE``, and above the bound
``FAIL``; with two sets, a second median worse than the first by more
than the bound is flagged ``DRIFT``.  Every run is listed, and the raw
records are written as JSON under the scratch directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


#: Set-up times have no spread limit, only the drift limit between sets;
#: ``fail_share`` must simply stay 0 (a non-zero run exits 1).
UNCHECKED_SPREAD = ("setup_s", "setup_wall_s", "fail_share")


def run_once(workload: str, seed: int) -> dict:
    """One benchmark run: its named metrics, exit code and seconds taken."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(common.UNIT_SECONDS), "--trace", "0"],
        capture_output=True, text=True, cwd=common.ROOT)
    record = {"workload": workload, "seed": seed, "exit": proc.returncode,
              "elapsed_s": time.monotonic() - started, "metrics": {}}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            record["metrics"][parts[1]] = float(parts[2])
        elif line.startswith("env "):
            record["env"] = json.loads(line[4:])
        elif line.startswith("setup_samples_cpu_wall_s "):
            record["setup_samples_cpu_wall_s"] = parts[1:]
    if proc.returncode != 0:
        record["stderr_tail"] = proc.stderr.splitlines()[-5:]
    return record


def bounds(workload: str) -> Dict[str, dict]:
    table = {m["name"]: m for m in common.benchmark_spec()["end_to_end"]}
    for m in common.printed_metrics(workload):
        table[m["name"]] = m
    return table


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def report(title: str, sets: List[List[dict]]) -> bool:
    """Print the table for one group of runs; True when every check holds."""
    ok = True
    workload = sets[0][0]["workload"]
    print(f"\n## {title}")
    for number, runs in enumerate(sets, 1):
        print(f"set {number}:")
        for r in runs:
            shown = " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items())
            print(f"  seed {r['seed']:>3} exit {r['exit']} "
                  f"({r['elapsed_s']:.0f} s): {shown}")
    print(f"{'metric':<20} {'set':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}  verdict")
    firsts: Dict[str, float] = {}
    for name, m in bounds(workload).items():
        for number, runs in enumerate(sets, 1):
            values = [r["metrics"][name] for r in runs
                      if name in r["metrics"]]
            if len(values) < 2:
                continue
            q1, q2, q3 = common.quartiles(values)
            width = (q3 - q1) / q2 if q2 else float("inf")
            verdict = "ok"
            if name in UNCHECKED_SPREAD:
                pass
            elif width > m["bound"]:
                verdict, ok = "FAIL", False
            elif width > m["bound"] / 3:
                verdict, ok = "WIDE", False
            if number == 1:
                firsts[name] = q2
            elif worse_by(firsts[name], q2, m["better"]) > m["bound"]:
                verdict, ok = "DRIFT", False
            print(f"{name:<20} {number:>3} {q2:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {width:>7.3f} {m['bound']:>6}  {verdict}")
    failures = sum(r["exit"] != 0 for runs in sets for r in runs)
    if failures:
        ok = False
        print(f"{failures} run(s) exited non-zero")
    return ok


def seed_groups(mode: str, runs: int) -> Dict[str, List[int]]:
    """The seeds of every run of one set, per group."""
    if mode == "distinct":
        first = common.DEFAULT_SEED
        return {f"seeds {first}-{first + runs - 1}":
                list(range(first, first + runs))}
    return {f"seed {seed} x{runs}": [seed] * runs
            for seed in (common.DEFAULT_SEED, common.HELD_OUT_SEED)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=common.WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seeds", choices=("distinct", "same"),
                        default="distinct",
                        help="a seed per run, or one seed per group")
    args = parser.parse_args(argv)
    workloads = args.workload or list(common.WORKLOADS)
    records: Dict[str, List[List[dict]]] = {}
    for workload in workloads:
        for group, seeds in seed_groups(args.seeds, args.runs).items():
            title = f"{workload}, {group}"
            records[title] = []
            for _ in range(args.sets):
                runs = []
                for seed in seeds:
                    runs.append(run_once(workload, seed))
                    common.log(f"steady: {workload} seed {seed} done")
                records[title].append(runs)
    ok = all([report(title, sets) for title, sets in records.items()])
    output = common.DEFAULT_WORKDIR / f"steady-{args.seeds}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(records, indent=1))
    print(f"\nraw records: {output}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
