"""Shared pieces of the benchmark: paths, the environment guard, metric
declarations and small statistics helpers.

Nothing here imports :mod:`repro`, so the launcher can validate its
arguments and environment before the program under test is touched.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch area for caches, reference values and run records.  Listed in
#: the root ``.gitignore``; never committed.
DEFAULT_WORKDIR = ROOT / ".perfbench"

#: The only ``REPRO_*`` variable the benchmark sets, and only for the
#: processes it starts: its private disk-cache directory.
CACHE_ENV = "REPRO_CACHE_DIR"

WORKLOADS = ("sweep-warm", "capture-cold", "serve-zipf")

#: The seed results are quoted at, and the held-out seed a claimed gain
#: is checked on too.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: Timed work per unit of ``--seconds``.  A run does
#: ``max(1, round(seconds / UNIT_SECONDS))`` units of fixed work; it
#: never stops on a timer.
UNIT_SECONDS = 8

#: Repetitions of the fixed work in one run.  ``wall_s`` sums, over the
#: parts of the work (a configuration, an analog, the request stream),
#: each part's median across repetitions, so a burst of host contention
#: during one repetition does not move the result.
REPEATS = 2

#: Setup is measured this many extra times per run, each in a fresh
#: process, and reported as the median together with the measured run.
SETUP_PROBES = 2

#: Metrics printed by name on every run but kept out of the result
#: object, whose metrics must be non-zero on every workload and steady
#: enough to gate on: wall-clock numbers (this host's processors are
#: shared with other virtual machines, and the time they are taken away,
#: steal, moves wall-clock readings by tens of percent), numbers that
#: apply to one workload only, and ``fail_share``, which is 0 when all
#: goes well.  ``bound`` is the share by which the median may worsen
#: before ``steady.py`` flags it.
WALL_METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
]
WORKLOAD_METRICS: Dict[str, List[dict]] = {
    "sweep-warm": [
        {"name": "sim_minstr_per_s", "unit": "Minstr/s",
         "better": "higher", "bound": 0.25},
    ],
    "capture-cold": [
        {"name": "trace_minstr_per_s", "unit": "Minstr/s",
         "better": "higher", "bound": 0.25},
    ],
    "serve-zipf": [
        {"name": "requests_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
        {"name": "latency_p99_ms", "unit": "ms", "better": "lower",
         "bound": 0.25},
    ],
}
FAIL_SHARE = {"name": "fail_share", "unit": "share", "better": "lower",
              "bound": 0.0}


def printed_metrics(workload: str) -> List[dict]:
    """The metrics a run prints besides those of ``BENCHMARK.json``."""
    return WALL_METRICS + WORKLOAD_METRICS[workload] + [FAIL_SHARE]


class BenchError(Exception):
    """A condition under which the benchmark refuses to produce a result."""


def benchmark_spec() -> dict:
    """The parsed ``BENCHMARK.json`` at the checkout root."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def guard_environment(environ: Optional[Dict[str, str]] = None,
                      own_cache: bool = False) -> None:
    """Refuse to run when any ``REPRO_*`` knob is set.

    The program must run as shipped (serial sweeps, default backend,
    engine and tracer).  The one tolerated variable is the benchmark's
    own cache directory, in the processes the launcher starts
    (``own_cache``); the launcher itself accepts none.
    """
    environ = os.environ if environ is None else environ
    bad = [key for key in sorted(environ)
           if key.startswith("REPRO_")
           and not (own_cache and key == CACHE_ENV)]
    if bad:
        raise BenchError(
            "refusing to run with REPRO_* variables set (the program must "
            f"run at its defaults): {', '.join(bad)}")


def check_layout() -> None:
    """The program's sources must sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC}/repro; run from a full checkout")


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for a process the benchmark starts."""
    env = dict(os.environ)
    env[CACHE_ENV] = str(cache_dir)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def scale_units(seconds: float) -> int:
    """Units of fixed work a run of ``seconds`` does."""
    return max(1, int(round(seconds / UNIT_SECONDS)))


def sources_digest() -> str:
    """Hash of the program's Python sources (keys the warm-cache marker)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment_record(seed: int) -> Dict[str, object]:
    """Host and program identity recorded with every result."""
    import numpy

    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "sources": sources_digest(), "seed": seed}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
