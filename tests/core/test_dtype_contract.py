"""One in-memory dtype contract for block streams and compiled views.

Every integer array of a :class:`BlockStream` and of a
:class:`CompiledBlocks` view keeps the width declared below, whether it
was segmented and compiled afresh (cold), loaded from the cache (warm)
or read back from an artifact of all-``int64`` records (legacy).
The tables are written out here rather than imported, so a silent
re-widening anywhere, the code's own tables included, fails a test.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import FetchInput
from repro.core.kernels import (
    ARTIFACT_DTYPES,
    DERIVED_ON_LOAD,
    ROW_DTYPES,
    STORED_DTYPES,
    CompiledBlocks,
    ReadList,
    ReadRows,
    compile_fetch_input,
)
from repro.icache.geometry import CacheGeometry
from repro.runtime import cache as disk_cache
from repro.trace import segment_blocks
from repro.trace.blocks import STREAM_DTYPES
from repro.workloads import load_trace
from repro.workloads.base import REGISTRY

BUDGET = 5_000
NAME = "go"

GEOMETRIES = [CacheGeometry.normal(8), CacheGeometry.extended(8),
              CacheGeometry.self_aligned(8)]

STREAM = {
    "start": np.int32, "n_instr": np.int8, "exit_kind": np.uint8,
    "exit_target": np.int32, "first_rec": np.int32, "n_recs": np.int8,
}

COMPILED = {
    "start": np.int32, "limit": np.int8, "n_instr": np.int8,
    "exit_kind": np.uint8, "exit_target": np.int32, "has_exit": np.bool_,
    "is_halt": np.bool_, "exit_pc": np.int32, "exit_direct": np.int32,
    "act_exit": np.int8, "line0": np.int32, "code_of_addr": np.uint8,
    "conds_before": np.int32, "n_conds": np.int8, "cond_block": np.int32,
    "cond_pos": np.int8, "cond_taken": np.bool_,
}

#: Read-list widths at block width 8 (columns and ranks fit uint8).
READS = {
    "block": np.int32, "col": np.uint8, "code": np.uint8,
    "rank": np.uint8, "stop_col": np.uint8, "stop_code": np.uint8,
    "n_before": np.uint8,
}


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(disk_cache.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def _fetch_input(blocks):
    """A memo-free fetch input over ``blocks``."""
    return FetchInput(trace=blocks.trace, static=REGISTRY.static_code(NAME),
                      geometry=blocks.geometry, blocks=blocks)


def _load(geometry):
    """The fetch input read back from the derived artifact."""
    fetch_input = kernels.cached_fetch_input(
        load_trace(NAME, BUDGET), REGISTRY.static_code(NAME), geometry,
        NAME, BUDGET, REGISTRY.digest(NAME))
    assert fetch_input is not None
    return fetch_input


def _forbid_recompile(monkeypatch):
    def no_recompile(*args):
        raise AssertionError("warm base was recompiled")
    monkeypatch.setattr(kernels, "_stored_arrays", no_recompile)
    monkeypatch.setattr(kernels, "read_rows", no_recompile)


def _assert_contract(blocks, fetch_input):
    for field, dtype in STREAM.items():
        assert getattr(blocks, field).dtype == dtype, field
    for flag in (False, True):
        compiled = compile_fetch_input(fetch_input, flag)
        for field, dtype in COMPILED.items():
            assert getattr(compiled, field).dtype == dtype, field
        for field, dtype in READS.items():
            assert getattr(compiled.reads, field).dtype == dtype, field


def _store_legacy(geometry):
    """Rewrite the derived artifact as all-int64 records, as a
    hand-copied or widened artifact would hold them (no sidecar)."""
    path = disk_cache._derived_path(disk_cache.cache_dir(), NAME, BUDGET,
                                    geometry, REGISTRY.digest(NAME))
    records = disk_cache.read_records(path.read_bytes())
    with open(path, "wb") as handle:
        disk_cache.write_records(handle, {
            key: value.astype(np.int64) if value.dtype.kind in "iu"
            else value for key, value in records.items()})
    disk_cache._checksum_path(path).unlink()


def test_tables_cover_every_field():
    """The declared tables name every array field, and the code's own
    tables agree with them."""
    arrays = {field.name for field in dataclasses.fields(CompiledBlocks)
              if field.name not in ("near_block", "n_blocks", "reads",
                                    "rows")}
    assert set(COMPILED) == arrays
    assert set(READS) == {field.name
                          for field in dataclasses.fields(ReadList)}
    assert set(READS) - {"code"} == {
        field.name for field in dataclasses.fields(ReadRows)
        if field.init and field.name != "width"}
    assert {k: np.dtype(v) for k, v in STREAM_DTYPES.items()} \
        == {k: np.dtype(v) for k, v in STREAM.items()}
    for field, dtype in STORED_DTYPES.items():
        assert np.dtype(dtype) == COMPILED[field], field
    for field, dtype in ROW_DTYPES.items():
        assert np.dtype(dtype) == READS[field], field
    # The derived artifact stores or rebuilds every stream, base and
    # row array, each once.
    every = [*STREAM, *STORED_DTYPES, *ROW_DTYPES]
    assert len(set(every)) == len(every)
    assert set(ARTIFACT_DTYPES) == set(every) - set(DERIVED_ON_LOAD)
    assert set(DERIVED_ON_LOAD) < set(every)


@pytest.mark.parametrize("case", ["cold", "warm", "legacy"])
@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["normal", "extend", "align"])
def test_block_stream_and_views_keep_declared_widths(
        geometry, case, cache_dir, monkeypatch):
    blocks = segment_blocks(load_trace(NAME, BUDGET), geometry)
    cold = _fetch_input(blocks)
    kernels.store_fetch_input(cold, NAME, BUDGET, REGISTRY.digest(NAME))
    if case == "cold":
        _assert_contract(blocks, cold)
        return
    reference = {flag: compile_fetch_input(_fetch_input(blocks), flag)
                 for flag in (False, True)}
    if case == "legacy":
        _store_legacy(geometry)
    _forbid_recompile(monkeypatch)
    warm = _load(geometry)
    for field in STREAM:
        assert np.array_equal(getattr(warm.blocks, field),
                              getattr(blocks, field)), field
    _assert_contract(warm.blocks, warm)
    for flag in (False, True):
        compiled = compile_fetch_input(warm, flag)
        for field in COMPILED:
            assert np.array_equal(getattr(compiled, field),
                                  getattr(reference[flag], field)), field


def test_segmentation_rejects_widths_the_contract_cannot_hold():
    trace = load_trace(NAME, BUDGET)
    with pytest.raises(ValueError, match="block width 128"):
        segment_blocks(trace, CacheGeometry.self_aligned(128))
