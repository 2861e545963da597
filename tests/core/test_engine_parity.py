"""Scalar vs fast engine parity — the bit-exactness contract.

``REPRO_ENGINE=fast`` routes every engine's ``run`` through the
vectorized kernels of :mod:`repro.core.fast`.  The contract is strict:
for any workload and configuration the fast path must produce a
``FetchStats`` *equal* to the scalar reference loop's — same counts,
same cycles, same event breakdown — and must leave every predictor
structure (PHT counters, select tables, BIT, target arrays, BTB LRU
order, RAS) in the identical state, so interleaving scalar and fast
runs on one warm engine can never diverge.

The matrix below mirrors the paper's coverage: every engine, all three
cache organisations, single and double selection, BIT/BTB/near-block
variants, and warm re-runs (including cross-workload, which exercises
stale-BIT reconstruction from a previously trained table).
"""

import pytest

from repro.core import (
    DOUBLE_SELECT,
    DualBlockEngine,
    EngineConfig,
    SingleBlockEngine,
)
from repro.core.engine_mode import ENGINE_ENV
from repro.core.multi import MultiBlockEngine
from repro.core.two_ahead import TwoBlockAheadEngine
from repro.icache import CacheGeometry
from repro.qa.state import engine_state
from repro.workloads import load_fetch_input

BUDGET = 6_000

GEOMETRIES = {
    "normal": CacheGeometry.normal(8),
    "extend": CacheGeometry.extended(8),
    "align": CacheGeometry.self_aligned(8),
}


def _config(geometry, **kw):
    kw.setdefault("n_select_tables", 4)
    return EngineConfig(geometry=geometry, **kw)


#: (engine factory, config kwargs) cells.  Each factory takes a config
#: and returns a fresh engine.
ENGINES = {
    "single": (SingleBlockEngine, {}),
    "single-bit": (SingleBlockEngine, {"bit_entries": 8}),
    "single-near": (SingleBlockEngine, {"near_block": True}),
    "single-btb": (SingleBlockEngine,
                   {"target_kind": "btb", "target_entries": 64,
                    "btb_associativity": 4}),
    "single-btb-fa": (SingleBlockEngine,
                      {"target_kind": "btb", "target_entries": 4,
                       "btb_associativity": 4}),
    "single-nott": (SingleBlockEngine,
                    {"track_not_taken_targets": False}),
    "dual-single": (DualBlockEngine, {}),
    "dual-double": (DualBlockEngine, {"selection": DOUBLE_SELECT}),
    "dual-btb": (DualBlockEngine,
                 {"target_kind": "btb", "target_entries": 64,
                  "btb_associativity": 4}),
    "dual-btb-double": (DualBlockEngine,
                        {"target_kind": "btb", "target_entries": 32,
                         "btb_associativity": 2,
                         "selection": DOUBLE_SELECT}),
    "multi-1": (lambda c: MultiBlockEngine(c, 1), {}),
    "multi-1-btb": (lambda c: MultiBlockEngine(c, 1),
                    {"target_kind": "btb", "target_entries": 16,
                     "btb_associativity": 2}),
    # N=2 is the dual engine's configuration, built directly.
    "multi-2": (lambda c: MultiBlockEngine(c, 2), {}),
    "multi-2-double": (lambda c: MultiBlockEngine(c, 2),
                       {"selection": DOUBLE_SELECT}),
    "multi-3": (lambda c: MultiBlockEngine(c, 3), {}),
    "multi-3-double": (lambda c: MultiBlockEngine(c, 3),
                       {"selection": DOUBLE_SELECT}),
    "two-ahead": (TwoBlockAheadEngine, {}),
    "two-ahead-ser": (lambda c: TwoBlockAheadEngine(
        c, serialization_penalty=1), {}),
}


# "Full engine state" is defined once, in repro.qa.state, shared by this
# fixed matrix and the fuzz oracle so the two can never drift apart.

def run_both(factory, cfg_kw, geometry, monkeypatch,
             workloads=("compress",)):
    """Run the same engine scalar and fast; return both (stats, state)."""
    out = []
    for mode in ("scalar", "fast"):
        monkeypatch.setenv(ENGINE_ENV, mode)
        config = _config(geometry, **cfg_kw)
        engine = factory(config)
        stats = [engine.run(load_fetch_input(name, geometry, BUDGET))
                 for name in workloads]
        out.append((stats, engine_state(engine)))
    return out


@pytest.mark.parametrize("geometry_name", sorted(GEOMETRIES))
@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_scalar_fast_parity(engine_name, geometry_name, monkeypatch):
    factory, cfg_kw = ENGINES[engine_name]
    geometry = GEOMETRIES[geometry_name]
    (scalar_stats, scalar_state), (fast_stats, fast_state) = run_both(
        factory, cfg_kw, geometry, monkeypatch)
    assert fast_stats == scalar_stats
    assert fast_state == scalar_state


@pytest.mark.parametrize("engine_name", [
    "single-bit", "single-btb", "single-btb-fa", "dual-double", "dual-btb",
    "dual-btb-double", "multi-2", "multi-2-double", "multi-3",
    "two-ahead"])
def test_warm_rerun_parity(engine_name, monkeypatch):
    """Warm tables: run li, then gcc, then li again on ONE engine.

    The cross-workload middle run plants foreign entries in every table
    (the BIT case is the sharpest: stale windows must be reconstructed
    from codes trained by a different program), so the final run starts
    from a genuinely dirty warm state.
    """
    factory, cfg_kw = ENGINES[engine_name]
    geometry = GEOMETRIES["normal"]
    (scalar_stats, scalar_state), (fast_stats, fast_state) = run_both(
        factory, cfg_kw, geometry, monkeypatch,
        workloads=("li", "gcc", "li"))
    assert fast_stats == scalar_stats
    assert fast_state == scalar_state


def test_mixed_mode_interleaving(monkeypatch):
    """Scalar and fast runs interleave on one engine without diverging."""
    geometry = GEOMETRIES["align"]
    fetch_input = load_fetch_input("go", geometry, BUDGET)

    monkeypatch.setenv(ENGINE_ENV, "scalar")
    reference = DualBlockEngine(_config(geometry))
    ref_stats = [reference.run(fetch_input) for _ in range(3)]

    mixed = DualBlockEngine(_config(geometry))
    mixed_stats = []
    for mode in ("fast", "scalar", "fast"):
        monkeypatch.setenv(ENGINE_ENV, mode)
        mixed_stats.append(mixed.run(fetch_input))

    assert mixed_stats == ref_stats
    monkeypatch.setenv(ENGINE_ENV, "scalar")
    assert engine_state(mixed) == engine_state(reference)


def test_track_recovery_matches_scalar(monkeypatch):
    """Recovery tracking needs the serial loop; fast mode defers to it."""
    geometry = GEOMETRIES["normal"]
    fetch_input = load_fetch_input("compress", geometry, BUDGET)

    monkeypatch.setenv(ENGINE_ENV, "scalar")
    scalar_engine = SingleBlockEngine(_config(geometry,
                                              track_recovery=True))
    scalar = scalar_engine.run(fetch_input)

    monkeypatch.setenv(ENGINE_ENV, "fast")
    fast_engine = SingleBlockEngine(_config(geometry,
                                            track_recovery=True))
    fast = fast_engine.run(fetch_input)
    assert fast == scalar
    assert fast_engine.recovery_log == scalar_engine.recovery_log
    assert fast_engine.recovery_log  # tracking actually happened


def test_timeline_recording_matches_scalar(monkeypatch):
    """Timeline recording also defers to the serial loop, identically."""
    geometry = GEOMETRIES["normal"]
    fetch_input = load_fetch_input("compress", geometry, BUDGET)

    monkeypatch.setenv(ENGINE_ENV, "scalar")
    scalar = DualBlockEngine(_config(geometry)).run(fetch_input,
                                                    record_timeline=True)
    monkeypatch.setenv(ENGINE_ENV, "fast")
    fast = DualBlockEngine(_config(geometry)).run(fetch_input,
                                                  record_timeline=True)
    assert fast == scalar
    assert fast.timeline == scalar.timeline


def test_engine_mode_validation(monkeypatch):
    from repro.core import engine_mode

    monkeypatch.setenv(ENGINE_ENV, "vectorised")
    with pytest.raises(ValueError, match=ENGINE_ENV):
        engine_mode.engine_mode()
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert engine_mode.engine_mode() == "fast"
    monkeypatch.setenv(ENGINE_ENV, "scalar")
    assert not engine_mode.use_fast_engine()
