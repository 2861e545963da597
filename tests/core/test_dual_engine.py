"""Dual-block engine behaviour: pairing, selection, conflicts, penalties."""

import pytest

from repro.core import (
    DOUBLE_SELECT,
    DualBlockEngine,
    EngineConfig,
    FetchInput,
    PenaltyKind,
    SingleBlockEngine,
)
from repro.cpu import Machine
from repro.icache import CacheGeometry
from repro.isa import Assembler
from repro.trace import SyntheticSpec, synthetic_program

GEO = CacheGeometry.normal(8)


def fetch_input(build, geometry=GEO):
    asm = Assembler()
    build(asm)
    return FetchInput.from_program(asm.assemble(), geometry)


def synthetic_input(seed=3, geometry=GEO, budget=80_000, **spec_kw):
    program = synthetic_program(SyntheticSpec(seed=seed, **spec_kw))
    trace = Machine(program).run(max_instructions=budget).trace
    return FetchInput.from_trace(trace, program.static_code(), geometry)


class TestCycleAccounting:
    def test_base_cycles_one_plus_half(self):
        def body(a):
            for _ in range(40):
                a.nop()
            a.halt()
        fi = fetch_input(body)  # 41 instructions -> 6 blocks
        stats = DualBlockEngine(EngineConfig(geometry=GEO)).run(fi)
        assert stats.n_blocks == 6
        assert stats.base_cycles == 1 + 3  # b0 alone, then (1,2)(3,4)(5)

    def test_straight_line_penalty_free(self):
        def body(a):
            for _ in range(64):
                a.nop()
            a.halt()
        fi = fetch_input(body)
        stats = DualBlockEngine(EngineConfig(geometry=GEO)).run(fi)
        assert stats.penalty_cycles == 0
        # 65 instructions, 9 blocks: b0 alone + 4 pairs = 5 cycles.
        assert stats.ipc_f == pytest.approx(65 / 5)

    def test_dual_beats_single_on_loops(self):
        fi = synthetic_input(seed=5, iterations=30, body_ops=6)
        single = SingleBlockEngine(EngineConfig(geometry=GEO)).run(fi)
        dual = DualBlockEngine(
            EngineConfig(geometry=GEO, n_select_tables=8)).run(fi)
        assert dual.ipc_f > single.ipc_f * 1.2


class TestConfigValidation:
    def test_bit_entries_rejected(self):
        with pytest.raises(ValueError):
            DualBlockEngine(EngineConfig(geometry=GEO, bit_entries=64))

    def test_geometry_mismatch_rejected(self):
        def body(a):
            a.halt()
        fi = fetch_input(body, geometry=GEO)
        engine = DualBlockEngine(
            EngineConfig(geometry=CacheGeometry.self_aligned(8)))
        with pytest.raises(ValueError):
            engine.run(fi)

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(geometry=GEO, selection="triple")


class TestSelection:
    def test_steady_loop_misselects_settle(self):
        def body(a):
            a.li("r3", 0)
            a.li("r4", 400)
            a.label("top")
            a.addi("r3", "r3", 1)
            a.addi("r5", "r5", 1)
            a.addi("r6", "r6", 1)
            a.blt("r3", "r4", "top")
            a.halt()
        fi = fetch_input(body)
        stats = DualBlockEngine(EngineConfig(geometry=GEO)).run(fi)
        # After warmup the select table repeats the same selector.
        assert stats.event_counts.get(PenaltyKind.MISSELECT, 0) <= 6

    def test_double_selection_slower_than_single(self):
        """Figure 8's message: double selection costs ~10%."""
        fi = synthetic_input(seed=9, irregularity=0.8, iterations=24)
        single = DualBlockEngine(EngineConfig(
            geometry=GEO, n_select_tables=1)).run(fi)
        double = DualBlockEngine(EngineConfig(
            geometry=GEO, n_select_tables=1,
            selection=DOUBLE_SELECT)).run(fi)
        assert double.ipc_f < single.ipc_f
        # Double selection charges misselects on block 1 as well.
        assert double.event_counts.get(PenaltyKind.MISSELECT, 0) >= \
            single.event_counts.get(PenaltyKind.MISSELECT, 0)

    def test_more_select_tables_do_not_hurt(self):
        fi = synthetic_input(seed=11, irregularity=0.6)
        by_tables = {}
        for n in (1, 8):
            stats = DualBlockEngine(EngineConfig(
                geometry=GEO, n_select_tables=n)).run(fi)
            by_tables[n] = stats.event_counts.get(PenaltyKind.MISSELECT, 0)
        assert by_tables[8] <= by_tables[1]

    def test_double_selection_doubles_select_storage(self):
        """Double selection stores both blocks' selections: one more
        select table, twice the single scheme's storage."""
        bits = []
        for selection in ("single", DOUBLE_SELECT):
            engine = DualBlockEngine(EngineConfig(
                geometry=GEO, n_select_tables=4, selection=selection))
            bits.append(sum(t.storage_bits for t in engine.selects))
        assert bits[1] == 2 * bits[0]

    def test_double_selection_has_no_bit_penalties(self):
        fi = synthetic_input(seed=2)
        stats = DualBlockEngine(EngineConfig(
            geometry=GEO, selection=DOUBLE_SELECT)).run(fi)
        assert PenaltyKind.BIT not in stats.event_counts


class TestBankConflicts:
    def test_conflicting_lines_charged(self):
        # A loop body exactly 8 lines long: the pair's two blocks hit
        # lines n and n+8 -> same bank with 8 banks.
        def body(a):
            a.li("r3", 0)
            a.li("r4", 300)
            a.label("top")          # address 2
            for _ in range(62):
                a.addi("r5", "r5", 1)
            a.addi("r3", "r3", 1)
            a.blt("r3", "r4", "top")
            a.halt()
        fi = fetch_input(body)
        stats = DualBlockEngine(EngineConfig(geometry=GEO)).run(fi)
        assert stats.event_counts.get(PenaltyKind.BANK_CONFLICT, 0) > 100

    def test_same_line_pair_is_free(self):
        # Tight 2-block loop inside one line: shared line, no conflict.
        def body(a):
            a.li("r3", 0)
            a.li("r4", 300)
            a.label("top")
            a.addi("r3", "r3", 1)
            a.blt("r3", "r4", "top")
            a.halt()
        fi = fetch_input(body)
        stats = DualBlockEngine(EngineConfig(geometry=GEO)).run(fi)
        assert stats.event_counts.get(PenaltyKind.BANK_CONFLICT, 0) == 0


class TestGeometries:
    @pytest.mark.parametrize("geometry", [
        CacheGeometry.normal(8),
        CacheGeometry.extended(8),
        CacheGeometry.self_aligned(8),
    ], ids=["normal", "extended", "self_aligned"])
    def test_runs_on_all_cache_types(self, geometry):
        fi = synthetic_input(seed=4, geometry=geometry)
        for selection in ("single", "double"):
            stats = DualBlockEngine(EngineConfig(
                geometry=geometry, selection=selection,
                n_select_tables=8)).run(fi)
            assert stats.n_instructions == fi.trace.n_instructions
            assert stats.fetch_cycles > 0

    def test_self_aligned_improves_ipb(self):
        fi_normal = synthetic_input(seed=6, geometry=CacheGeometry.normal(8))
        fi_aligned = synthetic_input(seed=6,
                                     geometry=CacheGeometry.self_aligned(8))
        assert fi_aligned.blocks.ipb >= fi_normal.blocks.ipb
