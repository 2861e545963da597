"""The fast tier's residual backend: replay primitive and engine parity.

Each engine's fast path has exactly one vectorized residual, which
replays select tables and target arrays through the keyed last-write
primitive in :mod:`repro.core.kernels`.  This module locks that
primitive against a brute-force reference and every engine's residual
against the scalar loops (stats *and* full predictor state, cold and
on warm tables), including the set-associative LRU BTB shape.
"""

import numpy as np
import pytest

from repro.core import DOUBLE_SELECT, DualBlockEngine, EngineConfig, \
    SingleBlockEngine
from repro.core.engine_mode import ENGINE_ENV
from repro.core.kernels import replay_last_write
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


# -- engine-level residual parity ---------------------------------------


GEOMETRY = CacheGeometry.self_aligned(8)

ENGINES = {
    "single": lambda c: SingleBlockEngine(c),
    "single-btb": None,  # built below: the 4-way LRU BTB residual
    "dual-double": lambda c: DualBlockEngine(c),
    "multi-2": lambda c: MultiBlockEngine(c, 2),
    "multi-2-double": lambda c: MultiBlockEngine(c, 2),
    "multi-3": lambda c: MultiBlockEngine(c, 3),
    "two-ahead": lambda c: TwoBlockAheadEngine(c),
}


def _build(engine_name):
    kw = {"n_select_tables": 4}
    if engine_name.endswith("-double"):
        kw["selection"] = DOUBLE_SELECT
    if engine_name == "single-btb":
        kw.update(target_kind="btb", target_entries=64,
                  btb_associativity=4)
        config = EngineConfig(geometry=GEOMETRY, **kw)
        return SingleBlockEngine(config)
    config = EngineConfig(geometry=GEOMETRY, **kw)
    return ENGINES[engine_name](config)


def _run_case(engine_name, monkeypatch, mode):
    monkeypatch.setenv(ENGINE_ENV, mode)
    engine = _build(engine_name)
    stats = [engine.run(load_fetch_input(name, GEOMETRY, BUDGET))
             for name in ("li", "li")]  # second run hits warm tables
    return stats, engine_state(engine)


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_every_backend_matches_scalar(engine_name, monkeypatch):
    ref_stats, ref_state = _run_case(engine_name, monkeypatch, "scalar")
    stats, state = _run_case(engine_name, monkeypatch, "fast")
    assert stats == ref_stats
    assert state == ref_state
