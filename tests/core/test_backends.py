"""Kernel-backend registry, replay primitive, and compiled-tier tests.

Covers the ``REPRO_BACKEND`` contract end to end: mode parsing and the
degradation chains, the keyed last-write replay against a brute-force
reference, engine-level bit-exactness of every registered backend
against the scalar loops (stats *and* full predictor state), and the
persistence of exec-generated kernels across loaders and processes.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.core import DOUBLE_SELECT, DualBlockEngine, EngineConfig, \
    SingleBlockEngine
from repro.core.backends import (
    BACKEND_ENV,
    BACKEND_MODES,
    available_backends,
    backend_mode,
    get_backend,
    resolve_backend,
)
from repro.core.backends.base import replay_last_write
from repro.core.backends.codegen import KernelLoader, KernelSpec, \
    generate_source
from repro.core.engine_mode import ENGINE_ENV
from repro.core.multi import MultiBlockEngine
from repro.core.two_ahead import TwoBlockAheadEngine
from repro.icache import CacheGeometry
from repro.qa.state import engine_state
from repro.workloads import load_fetch_input

BUDGET = 4_000


# -- replay_last_write --------------------------------------------------


def _replay_reference(keys, values, writes, init):
    """Dense per-event loop: the semantics replay_last_write vectorizes."""
    state = dict(enumerate(init))
    written = set()
    observed = []
    for k, v, w in zip(keys, values, writes):
        observed.append(state[k])
        if w:
            state[k] = v
            written.add(k)
    final_keys = sorted(written)
    return (np.asarray(observed, dtype=np.int64),
            np.asarray(final_keys, dtype=np.int64),
            np.asarray([state[k] for k in final_keys], dtype=np.int64))


def _assert_replay_matches(keys, values, writes, init):
    got = replay_last_write(
        np.asarray(keys, dtype=np.int64),
        np.asarray(values, dtype=np.int64),
        np.asarray(writes, dtype=bool),
        np.asarray(init, dtype=np.int64))
    want = _replay_reference(keys, values, writes, init)
    for g, w in zip(got, want):
        assert np.array_equal(g, w), (got, want)


def test_replay_empty_stream():
    _assert_replay_matches([], [], [], [5, 7])


def test_replay_single_read_sees_init():
    _assert_replay_matches([1], [99], [False], [10, 20, 30])


def test_replay_write_then_read_same_key():
    _assert_replay_matches([2, 2], [41, 0], [True, False], [0, 0, 7])


def test_replay_rewrite_of_same_value_counts_as_written():
    # The scalar engines replace cold None entries on every write, so a
    # write event must mark the key written even when the stored value
    # is already present.
    _, final_keys, final_values = replay_last_write(
        np.array([3], dtype=np.int64), np.array([9], dtype=np.int64),
        np.array([True]), np.array([0, 0, 0, 9], dtype=np.int64))
    assert final_keys.tolist() == [3]
    assert final_values.tolist() == [9]


def test_replay_randomized_against_reference():
    rng = np.random.default_rng(1997)
    for _ in range(25):
        m = int(rng.integers(1, 200))
        n_keys = int(rng.integers(1, 20))
        keys = rng.integers(0, n_keys, m)
        values = rng.integers(-5, 100, m)
        writes = rng.random(m) < 0.5
        init = rng.integers(-1, 50, n_keys)
        _assert_replay_matches(keys, values, writes, init)


# -- registry -----------------------------------------------------------


def test_backend_mode_defaults_to_numpy(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert backend_mode() == "numpy"
    monkeypatch.setenv(BACKEND_ENV, "")
    assert backend_mode() == "numpy"


@pytest.mark.parametrize("mode", BACKEND_MODES)
def test_backend_mode_accepts_every_registered_mode(monkeypatch, mode):
    monkeypatch.setenv(BACKEND_ENV, mode.upper())
    assert backend_mode() == mode


def test_backend_mode_rejects_unknown(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "turbo")
    with pytest.raises(ValueError, match="REPRO_BACKEND"):
        backend_mode()


def test_numpy_always_available():
    assert "numpy" in available_backends()
    assert resolve_backend("numpy").name == "numpy"


def test_chain_degrades_to_numpy_when_everything_unavailable(monkeypatch):
    monkeypatch.setattr(get_backend("compiled"), "available",
                        lambda: False)
    assert resolve_backend("compiled").name == "numpy"


# -- engine-level backend parity ---------------------------------------


GEOMETRY = CacheGeometry.self_aligned(8)

ENGINES = {
    "single": lambda c: SingleBlockEngine(c),
    "single-btb": None,  # built below: exercises the numpy fallback
    "dual-double": lambda c: DualBlockEngine(c),
    "multi-3": lambda c: MultiBlockEngine(c, 3),
    "two-ahead": lambda c: TwoBlockAheadEngine(c),
}


def _build(engine_name):
    kw = {"n_select_tables": 4}
    if engine_name == "dual-double":
        kw["selection"] = DOUBLE_SELECT
    if engine_name == "single-btb":
        kw.update(target_kind="btb", target_entries=64,
                  btb_associativity=4)
        config = EngineConfig(geometry=GEOMETRY, **kw)
        return SingleBlockEngine(config)
    config = EngineConfig(geometry=GEOMETRY, **kw)
    return ENGINES[engine_name](config)


def _run_case(engine_name, monkeypatch, mode, backend=None):
    monkeypatch.setenv(ENGINE_ENV, mode)
    if backend is None:
        monkeypatch.delenv(BACKEND_ENV, raising=False)
    else:
        monkeypatch.setenv(BACKEND_ENV, backend)
    engine = _build(engine_name)
    stats = [engine.run(load_fetch_input(name, GEOMETRY, BUDGET))
             for name in ("li", "li")]  # second run hits warm tables
    return stats, engine_state(engine)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_every_backend_matches_scalar(engine_name, monkeypatch):
    ref_stats, ref_state = _run_case(engine_name, monkeypatch, "scalar")
    for backend in available_backends():
        stats, state = _run_case(engine_name, monkeypatch, "fast",
                                 backend)
        assert stats == ref_stats, backend
        assert state == ref_state, backend


# -- compiled-kernel persistence ---------------------------------------


def _spec():
    consts = {"LS": 16, "NBE": 64, "TLS": 16, "IMM": 2, "IND": 4}
    return KernelSpec("single", tuple(sorted(consts.items())))


def test_kernel_persisted_and_reused_by_fresh_loader(tmp_path):
    spec = _spec()
    first = KernelLoader(cache_root=tmp_path)
    fn = first.load(spec)
    assert callable(fn)
    assert first.last_origin == "generated"
    path = tmp_path / f"single-{spec.digest()}.py"
    assert path.is_file()
    assert first.load(spec) is fn
    assert first.last_origin == "memo"

    second = KernelLoader(cache_root=tmp_path)
    assert callable(second.load(spec))
    assert second.last_origin == "disk"


def test_corrupt_kernel_artifact_is_regenerated(tmp_path):
    spec = _spec()
    path = tmp_path / f"single-{spec.digest()}.py"
    path.write_text("def kernel(:\n")  # syntactically broken
    loader = KernelLoader(cache_root=tmp_path)
    assert callable(loader.load(spec))
    assert loader.last_origin == "generated"
    # the overwrite left a loadable artifact behind
    healed = KernelLoader(cache_root=tmp_path)
    assert callable(healed.load(spec))
    assert healed.last_origin == "disk"


def test_generated_source_is_deterministic():
    assert generate_source(_spec()) == generate_source(_spec())


def test_kernel_reused_across_processes(tmp_path):
    spec = _spec()
    KernelLoader(cache_root=tmp_path).load(spec)
    script = (
        "import pathlib, sys\n"
        "from repro.core.backends.codegen import KernelLoader, "
        "KernelSpec\n"
        f"consts = {dict(_spec().constants)!r}\n"
        "spec = KernelSpec('single', tuple(sorted(consts.items())))\n"
        f"loader = KernelLoader(cache_root=pathlib.Path({str(tmp_path)!r}))\n"
        "loader.load(spec)\n"
        "print(loader.last_origin)\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "disk"
