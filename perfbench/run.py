#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 8 --trace 0

The launcher (this file, without ``--role``) never imports the program.
It starts fresh processes from this same file:

* ``prepare`` fills the warm caches a workload starts from, once per
  checkout (and again when the program's sources change);
* ``probe`` runs only a workload's setup and reports the CPU seconds it
  took from process start; the launcher also times it on the wall
  clock.  This happens ``SETUP_PROBES`` times;
* ``worker`` runs the workload: setup, the timed repetitions, then the
  output check against the scalar reference engines.  Its setup is
  measured like a probe's, and ``setup_s`` is the median of the CPU
  readings of all of them.

With ``--trace 1`` the launcher runs the workload twice, untraced and
then traced, and prints the per-layer metrics of the traced run plus the
difference between the two timed phases (the tracing overhead).

Every line but the last is for people.  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 1 when any output differs from its reference, and 2 when the
benchmark cannot run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import BenchError, log  # noqa: E402

#: Seconds a run may take in all, under the 180 s the harness allows.
RUN_BUDGET_S = 170.0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(common.UNIT_SECONDS),
                        help="sets the amount of fixed work "
                             f"(one unit per {common.UNIT_SECONDS} s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--workdir", type=Path,
                        default=common.DEFAULT_WORKDIR,
                        help="scratch directory for caches and references")
    parser.add_argument("--role", default="launch",
                        choices=("launch", "prepare", "probe", "worker"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cache_dir(args: argparse.Namespace, role: str) -> Path:
    """The private ``REPRO_CACHE_DIR`` of one process."""
    base = args.workdir.resolve() / args.size
    if args.workload == "capture-cold":
        # Probes must not empty the directory the measured run fills.
        return base / ("cold-probe" if role == "probe" else "cold")
    return base / f"warm-{args.workload}"


# ----------------------------------------------------------------------
# Child processes (prepare / probe / worker)
# ----------------------------------------------------------------------

def _make_workload(args: argparse.Namespace):
    import scenarios

    return scenarios.WORKLOAD_CLASSES[args.workload](
        args.seed, common.scale_units(args.seconds),
        scenarios.SIZES[args.size], Path(os.environ[common.CACHE_ENV]))


def peak_rss_mb() -> float:
    """Peak RSS of this process or of the largest child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_main(args: argparse.Namespace) -> int:
    import scenarios

    common.guard_environment(own_cache=True)
    proto = sys.stdout
    sys.stdout = sys.stderr  # the program's prints must not hit the protocol

    def say(line: str) -> None:
        proto.write(line + "\n")
        proto.flush()

    if args.role == "prepare":
        workload = _make_workload(args)
        workload.prepare()
        return 0

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install_layer_wrappers(tracer)
    workload = _make_workload(args)
    workload.setup()
    say(f"READY {scenarios.cpu_seconds():.6f}")
    if args.role == "probe":
        workload.teardown()
        return 0

    # The traced run does one repetition, so its layer numbers describe
    # setup plus one pass of the work.
    reps: List[List[Tuple[float, float, float]]] = []
    for rep in range(1 if tracer else common.REPEATS):
        if rep:
            workload.reset()
        reps.append(workload.run_once())
    rss = peak_rss_mb()
    workload.teardown()
    if tracer is not None:
        tracer.uninstall()
    wall_s = timed_seconds(reps, lambda p: p[1] - p[0])
    cpu_s = timed_seconds(reps, lambda p: p[2])
    workload.collect()

    import reference

    refs = reference.references(workload.name, args.size, args.seed,
                                workload.reference_keys(),
                                args.workdir.resolve())
    workload.check(refs)
    result = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss,
              "rep_s": [sum(p[1] - p[0] for p in rep) for rep in reps],
              "attempted": workload.attempted, "failed": workload.failed,
              "notes": workload.notes[:20],
              "metrics": workload.metrics(wall_s)}
    if tracer is not None:
        import tracing

        spans = tracer.spans
        layers = tracing.layer_metrics(spans, _suites())
        if workload.name == "serve-zipf":
            layers.update(workload.layers(spans))
        windows = [p[:2] for rep in reps for p in rep]
        layers["bench.timed_span_share"] = tracing.timed_coverage(
            spans, windows)
        layers["bench.timed_inner_span_share"] = tracing.inner_coverage(
            spans, windows)
        layers["bench.spans"] = len(spans)
        result["layers"] = layers
    say("RESULT " + json.dumps(result))
    return 0


def timed_seconds(reps, measure) -> float:
    """Sum over the parts of one repetition of each part's median
    ``measure`` (wall or CPU seconds) across repetitions."""
    return sum(common.median(measure(p) for p in part) for part in zip(*reps))


def _suites() -> Dict[str, str]:
    from repro.workloads import SPECFP95, SPECINT95

    return {**{n: "int" for n in SPECINT95}, **{n: "fp" for n in SPECFP95}}


# ----------------------------------------------------------------------
# The launcher
# ----------------------------------------------------------------------

class Child:
    """One child process, its protocol lines and when they arrived."""

    def __init__(self, args: argparse.Namespace, role: str,
                 traced: bool = False) -> None:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--size", args.size,
               "--workdir", str(args.workdir.resolve()), "--role", role]
        if traced:
            cmd.append("--traced")
        self.role = role
        self.lines: List[Tuple[float, str]] = []
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, cwd=common.ROOT,
            env=common.child_env(cache_dir(args, role)))
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append((time.perf_counter(), line.rstrip("\n")))

    def wait(self, deadline: float) -> None:
        try:
            self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"{self.role} process ran out of time")
        finally:
            self._reader.join(timeout=10)
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"{self.role} process exited with "
                             f"{self.proc.returncode}")

    def setup(self) -> Tuple[float, float]:
        """(CPU, wall) seconds from process start to the end of setup."""
        for at, line in self.lines:
            if line.startswith("READY "):
                return float(line.split()[1]), at - self.started
        raise BenchError(f"{self.role} process never finished setup")

    def result(self) -> dict:
        for _, line in self.lines:
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        raise BenchError(f"{self.role} process printed no result")


def run_child(args, role: str, deadline: float, traced: bool = False):
    child = Child(args, role, traced)
    child.wait(deadline)
    return child


def prepare(args: argparse.Namespace, deadline: float) -> None:
    """Fill the warm caches once per (sources, workload key)."""
    # sweep-warm fills every input regardless of seed; serve-zipf fills
    # the traces of its seed's universe; capture-cold starts empty.
    key = {"sweep-warm": "all", "serve-zipf": f"seed{args.seed}"}.get(
        args.workload)
    if key is None:
        return
    marker = cache_dir(args, "prepare") / f".perfbench-ready-{key}"
    digest = common.sources_digest()
    if marker.is_file() and marker.read_text() == digest:
        return
    log(f"perfbench: filling the {args.workload} cache (once)")
    run_child(args, "prepare", deadline)
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text(digest)


def launch(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    common.guard_environment()
    common.check_layout()
    spec = common.benchmark_spec()
    prepare(args, deadline)

    setups = [run_child(args, "probe", deadline).setup()
              for _ in range(common.SETUP_PROBES)]
    worker = run_child(args, "worker", deadline)
    setups.append(worker.setup())
    result = worker.result()
    traced = None
    if args.trace:
        traced_child = run_child(args, "worker", deadline, traced=True)
        traced = traced_child.result()

    failed = result["failed"] + (traced["failed"] if traced else 0)
    attempted = result["attempted"] + (traced["attempted"] if traced else 0)
    end_to_end = {"cpu_s": result["cpu_s"],
                  "setup_s": common.median(cpu for cpu, _ in setups),
                  "peak_rss_mb": result["peak_rss_mb"]}
    named = dict(end_to_end)
    named.update(wall_s=result["wall_s"],
                 setup_wall_s=common.median(wall for _, wall in setups))
    named.update(result["metrics"])
    named["fail_share"] = failed / attempted

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"units={common.scale_units(args.seconds)}")
    print("env " + json.dumps(common.environment_record(args.seed),
                               sort_keys=True))
    print("setup_samples_cpu_wall_s " + " ".join(
        f"{cpu:.4f}/{wall:.4f}" for cpu, wall in setups))
    print("repetition_s " + " ".join(f"{s:.4f}" for s in result["rep_s"]))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for m in common.printed_metrics(args.workload):
        units[m["name"]] = m["unit"]
    for name, value in named.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for note in result["notes"] + (traced["notes"] if traced else []):
        print(f"note {note}")

    if traced:
        layers = dict(traced["layers"])
        layers["bench.traced_wall_s"] = traced["wall_s"]
        layers["bench.tracing_overhead_s"] = (traced["wall_s"]
                                              - result["wall_s"])
        metrics = {}
        for m in spec["per_layer"]:
            value = float(layers.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"layer {m['name']} {value:.6g} {m['unit']}")
    else:
        metrics = {m["name"]: {"value": float(end_to_end[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.role == "launch":
            return launch(args)
        return child_main(args)
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
