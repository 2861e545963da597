"""The process heap policy (:mod:`repro.runtime.heap`)."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import DualBlockEngine, EngineConfig
from repro.predictors.evaluate import direction_accuracy_sweep
from repro.runtime import heap
from repro.workloads import load_fetch_input

SRC = Path(__file__).resolve().parents[2] / "src"


class _FakeMallopt:
    def __init__(self, result):
        self.result = result
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


class _FakeLibc:
    def __init__(self, mallopt=None):
        if mallopt is not None:
            self.mallopt = mallopt


@pytest.fixture
def fresh(monkeypatch):
    """A process in which the policy has not run yet."""
    monkeypatch.setattr(heap, "_applied", False)


def _load(monkeypatch, libc):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)


def test_sets_both_thresholds_once_per_process(fresh, monkeypatch):
    mallopt = _FakeMallopt(1)
    _load(monkeypatch, _FakeLibc(mallopt))
    assert heap.keep_freed_memory()
    assert not heap.keep_freed_memory()
    assert mallopt.calls == [(heap.M_MMAP_THRESHOLD, 32 * 1024 * 1024),
                             (heap.M_TRIM_THRESHOLD, 64 * 1024 * 1024)]


def test_no_mallopt_is_a_silent_no_op(fresh, monkeypatch):
    _load(monkeypatch, _FakeLibc())
    assert not heap.keep_freed_memory()
    assert not heap.keep_freed_memory()


def test_rejected_threshold_changes_nothing_more(fresh, monkeypatch):
    mallopt = _FakeMallopt(0)
    _load(monkeypatch, _FakeLibc(mallopt))
    assert not heap.keep_freed_memory()
    assert not heap.keep_freed_memory()
    assert mallopt.calls == [(heap.M_MMAP_THRESHOLD, 32 * 1024 * 1024)]


def _run_fast_engine(fetch_input):
    DualBlockEngine(EngineConfig()).run(fetch_input)


def _run_direction_sweep(fetch_input):
    direction_accuracy_sweep(fetch_input.trace, fetch_input.blocks, [4])


@pytest.mark.parametrize("run", [_run_fast_engine, _run_direction_sweep],
                         ids=["fast-driver", "direction-sweep"])
def test_applies_the_policy(run, monkeypatch):
    """Both call sites: the fast engine driver, and Figure 6's sweep,
    which never reaches that driver."""
    fetch_input = load_fetch_input("compress", EngineConfig().geometry,
                                   2000)
    calls = []
    monkeypatch.setattr(heap, "keep_freed_memory",
                        lambda: calls.append(1))
    run(fetch_input)
    assert calls == [1]


#: Two passes of a 4-analog dual sweep at 120 000 instructions, in one
#: process; prints the second pass's minor page faults.  Per-cell
#: temporaries there are far above glibc's 128 KiB default thresholds.
_SWEEP_TWICE = """
import json, resource
from repro.core import EngineConfig
from repro.runtime.executor import SuiteSpec, _run_engine_cell, execute
from repro.workloads import SPECINT95, load_fetch_input

spec = SuiteSpec(suite="int", config=EngineConfig(), budget=120000)
cells = [(spec, name) for name in SPECINT95[:4]]
for _, name in cells:
    load_fetch_input(name, spec.config.geometry, spec.budget)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    execute(_run_engine_cell, cells, jobs=1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                  - before)
print(json.dumps(faults))
"""

#: Minor faults a warm second pass may take.  With the policy it takes
#: a few hundred; without it, about 5 000 (freed temporaries are
#: returned to the kernel and faulted in again).
SECOND_PASS_FAULTS = 1000


@pytest.mark.skipif(heap._mallopt() is None,
                    reason="the C library has no mallopt")
def test_warm_sweep_reuses_freed_memory(tmp_path):
    pytest.importorskip("resource")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", _SWEEP_TWICE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    first, second = json.loads(proc.stdout.splitlines()[-1])
    assert second < SECOND_PASS_FAULTS, (first, second)
