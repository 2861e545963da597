"""N-block engine: dual equivalence, scaling behaviour, penalties."""

import pytest

from repro.core import (
    DOUBLE_SELECT,
    EngineConfig,
    MultiBlockEngine,
    MultiTargetArray,
    PenaltyKind,
    SINGLE_SELECT,
    TARGET_BTB,
    penalty_cycles_slot,
)
from repro.cpu import Machine
from repro.icache import CacheGeometry
from repro.targets import DualBTBTargetArray
from repro.trace import SyntheticSpec, synthetic_program
from repro.core.config import FetchInput

from .test_dual_reference import assert_matches_reference

GEO = CacheGeometry.normal(8)


def synthetic_input(seed=3, geometry=GEO, budget=60_000, **spec_kw):
    program = synthetic_program(SyntheticSpec(seed=seed, **spec_kw))
    trace = Machine(program).run(max_instructions=budget).trace
    return FetchInput.from_trace(trace, program.static_code(), geometry)


class TestDualEquivalence:
    """MultiBlockEngine(n=2) must be cycle-for-cycle the paper's dual
    loop, kept in ``test_dual_reference.py``: stats, timeline and final
    state, on an irregular synthetic program, in both engine modes."""

    @pytest.mark.parametrize("selection", [SINGLE_SELECT, DOUBLE_SELECT])
    @pytest.mark.parametrize("geometry", [
        CacheGeometry.normal(8),
        CacheGeometry.extended(8),
        CacheGeometry.self_aligned(8),
    ], ids=["normal", "extended", "self_aligned"])
    def test_identical_stats(self, selection, geometry, monkeypatch):
        fi = synthetic_input(seed=11, geometry=geometry, irregularity=0.6)
        config = EngineConfig(geometry=geometry, selection=selection,
                              n_select_tables=8)
        assert_matches_reference(
            config, fi, monkeypatch,
            engine_factory=lambda c: MultiBlockEngine(c, 2))


class TestValidation:
    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            MultiBlockEngine(EngineConfig(geometry=GEO), 0)

    def test_bit_entries_rejected(self):
        with pytest.raises(ValueError):
            MultiBlockEngine(EngineConfig(geometry=GEO, bit_entries=64), 2)

    def test_btb_rejected(self):
        # The BTB's tag holds target number 1 or 2.
        with pytest.raises(ValueError):
            MultiBlockEngine(
                EngineConfig(geometry=GEO, target_kind=TARGET_BTB), 3)

    @pytest.mark.parametrize("n", [1, 2])
    def test_btb_accepted_up_to_two_blocks(self, n):
        engine = MultiBlockEngine(
            EngineConfig(geometry=GEO, target_kind=TARGET_BTB), n)
        assert isinstance(engine.targets, DualBTBTargetArray)

    def test_geometry_mismatch_rejected(self):
        fi = synthetic_input(seed=1)
        engine = MultiBlockEngine(
            EngineConfig(geometry=CacheGeometry.extended(8)), 2)
        with pytest.raises(ValueError):
            engine.run(fi)


class TestScaling:
    def test_base_cycles_shrink_with_width(self):
        fi = synthetic_input(seed=5)
        cycles = []
        for n in (1, 2, 4):
            stats = MultiBlockEngine(
                EngineConfig(geometry=GEO, n_select_tables=8), n).run(fi)
            cycles.append(stats.base_cycles)
        assert cycles[0] > cycles[1] > cycles[2]

    def test_predictable_code_gains_from_more_blocks(self):
        fi = synthetic_input(seed=7, irregularity=0.05, body_ops=8,
                             iterations=24)
        ipcs = []
        for n in (2, 3, 4):
            stats = MultiBlockEngine(
                EngineConfig(geometry=GEO, n_select_tables=8), n).run(fi)
            ipcs.append(stats.ipc_f)
        assert ipcs[-1] > ipcs[0]

    def test_instructions_conserved(self):
        fi = synthetic_input(seed=9)
        for n in (1, 2, 3, 5):
            stats = MultiBlockEngine(EngineConfig(geometry=GEO), n).run(fi)
            assert stats.n_instructions == fi.trace.n_instructions

    def test_later_slots_charge_more(self):
        fi = synthetic_input(seed=13, irregularity=0.8)
        # With more slots, misselects get more expensive on average.
        wide = MultiBlockEngine(
            EngineConfig(geometry=GEO, n_select_tables=8), 4).run(fi)
        narrow = MultiBlockEngine(
            EngineConfig(geometry=GEO, n_select_tables=8), 2).run(fi)
        if wide.event_counts.get(PenaltyKind.MISSELECT, 0) and \
                narrow.event_counts.get(PenaltyKind.MISSELECT, 0):
            wide_avg = (wide.event_cycles[PenaltyKind.MISSELECT]
                        / wide.event_counts[PenaltyKind.MISSELECT])
            narrow_avg = (narrow.event_cycles[PenaltyKind.MISSELECT]
                          / narrow.event_counts[PenaltyKind.MISSELECT])
            assert wide_avg >= narrow_avg


class TestPenaltyExtrapolation:
    def test_slots_one_two_match_table3(self):
        for slot in (1, 2):
            assert penalty_cycles_slot(SINGLE_SELECT, slot,
                                       PenaltyKind.RETURN) in (4, 5)

    def test_plus_one_per_slot_pattern(self):
        assert penalty_cycles_slot(SINGLE_SELECT, 3,
                                   PenaltyKind.RETURN) == 6
        assert penalty_cycles_slot(SINGLE_SELECT, 4,
                                   PenaltyKind.MISFETCH_IMMEDIATE) == 4
        assert penalty_cycles_slot(SINGLE_SELECT, 3,
                                   PenaltyKind.MISSELECT) == 2
        assert penalty_cycles_slot(DOUBLE_SELECT, 3,
                                   PenaltyKind.MISSELECT) == 3

    def test_flat_penalties_stay_flat(self):
        assert penalty_cycles_slot(SINGLE_SELECT, 5,
                                   PenaltyKind.COND) == 5
        assert penalty_cycles_slot(SINGLE_SELECT, 5,
                                   PenaltyKind.BIT) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            penalty_cycles_slot(SINGLE_SELECT, 0, PenaltyKind.COND)
        with pytest.raises(ValueError):
            penalty_cycles_slot(DOUBLE_SELECT, 3, PenaltyKind.BIT)


class TestMultiTargetArray:
    def test_slots_independent(self):
        array = MultiTargetArray(3, 16, 8)
        array.update(1, 4, 2, 111)
        array.update(3, 4, 2, 333)
        assert array.lookup(1, 4, 2) == 111
        assert array.lookup(2, 4, 2) is None
        assert array.lookup(3, 4, 2) == 333

    def test_storage_scales_with_slots(self):
        assert MultiTargetArray(4, 256, 8).storage_bits == \
            4 * MultiTargetArray(1, 256, 8).storage_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiTargetArray(0)

    def test_slot_validated(self):
        array = MultiTargetArray(2, 16, 8)
        with pytest.raises(ValueError):
            array.lookup(3, 0, 0)
        with pytest.raises(ValueError):
            array.update(0, 0, 0, 1)
