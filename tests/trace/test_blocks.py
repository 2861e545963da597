"""Block segmentation tests: hand-built traces plus executed programs.

``reference_segment_blocks`` is the original per-block, per-record loop;
the vectorized :func:`segment_blocks` must reproduce its arrays and
dtypes exactly.
"""

import numpy as np
import pytest

from repro.cpu import Machine
from repro.icache.geometry import CacheGeometry
from repro.isa import Assembler, InstrKind
from repro.trace import EXIT_FALLTHROUGH, BlockStream, Trace, segment_blocks
from repro.workloads import SPEC95, load_trace

K_COND = int(InstrKind.COND)
K_JUMP = int(InstrKind.JUMP)
K_CALL = int(InstrKind.CALL)
K_HALT = int(InstrKind.HALT)

GEO8 = CacheGeometry.normal(8)

GEOMETRIES = [
    CacheGeometry.normal(8),
    CacheGeometry.extended(8),
    CacheGeometry.self_aligned(8),
    CacheGeometry(kind="normal", block_width=4, line_size=8, n_banks=8),
    CacheGeometry.extended(16),
]
GEOMETRY_IDS = ["normal8", "extended8", "self_aligned8", "normal4-line8",
                "extended16"]

STREAM_FIELDS = ("start", "n_instr", "exit_kind", "exit_target",
                 "first_rec", "n_recs")


def make_trace(entry, n, records):
    pcs, kinds, takens, targets = zip(*records)
    return Trace.from_lists(entry, n, list(pcs), list(kinds),
                            list(takens), list(targets))


def reference_segment_blocks(trace: Trace,
                             geometry: CacheGeometry) -> BlockStream:
    """Split ``trace`` into fetch blocks under ``geometry``.

    The record pointer only ever moves forward, so the loop walks the
    trace's record arrays (as plain Python lists) with one cursor.
    """
    k_halt = int(InstrKind.HALT)

    t_pc = trace.pc.tolist()
    t_kind = trace.kind.tolist()
    t_taken = trace.taken.tolist()
    t_target = trace.target.tolist()
    i = 0

    b_start = []
    b_n = []
    b_exit_kind = []
    b_exit_target = []
    b_first_rec = []
    b_n_recs = []

    block_limit = geometry.block_limit
    cur = trace.entry_pc
    done = False
    while not done:
        limit = block_limit(cur)
        geo_end = cur + limit - 1
        first_rec = i
        # Defaults: fall through at the geometry limit.
        n = limit
        exit_kind = EXIT_FALLTHROUGH
        next_start = geo_end + 1
        # The trace always ends with HALT, which terminates the outer
        # loop before the cursor can run past the records.
        while True:
            pc_r = t_pc[i]
            if pc_r > geo_end:
                break  # next control event is beyond this block
            kind_r = t_kind[i]
            if kind_r == k_halt:
                n = pc_r - cur + 1
                exit_kind = k_halt
                next_start = pc_r + 1
                i += 1
                done = True
                break
            if t_taken[i]:
                n = pc_r - cur + 1
                exit_kind = kind_r
                next_start = t_target[i]
                i += 1
                break
            # Not-taken conditional inside the block.
            i += 1
            if pc_r == geo_end:
                break  # block ends exactly at a not-taken conditional
        b_start.append(cur)
        b_n.append(n)
        b_exit_kind.append(exit_kind)
        b_exit_target.append(next_start)
        b_first_rec.append(first_rec)
        b_n_recs.append(i - first_rec)
        cur = next_start

    return BlockStream(
        trace=trace,
        geometry=geometry,
        start=np.asarray(b_start, dtype=np.int32),
        n_instr=np.asarray(b_n, dtype=np.int8),
        exit_kind=np.asarray(b_exit_kind, dtype=np.uint8),
        exit_target=np.asarray(b_exit_target, dtype=np.int32),
        first_rec=np.asarray(b_first_rec, dtype=np.int32),
        n_recs=np.asarray(b_n_recs, dtype=np.int8),
    )


def assert_matches_reference(trace, geometry):
    """Segment ``trace`` both ways; every array and dtype must agree."""
    got = segment_blocks(trace, geometry)
    want = reference_segment_blocks(trace, geometry)
    for field in STREAM_FIELDS:
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, field
        np.testing.assert_array_equal(g, w, err_msg=field)
    return got


#: Hand-built traces as ``(entry_pc, n_instructions, records)``.
HAND_BUILT = {
    "straight_line": (0, 20, [(19, K_HALT, False, 20)]),
    "taken_branch": (0, 5, [(3, K_JUMP, True, 16), (16, K_HALT, False, 17)]),
    "not_taken_cond": (0, 7, [(2, K_COND, False, 30),
                              (6, K_HALT, False, 7)]),
    "not_taken_cond_at_line_end": (0, 10, [(7, K_COND, False, 99),
                                           (9, K_HALT, False, 10)]),
    "misaligned_start": (5, 10, [(14, K_HALT, False, 15)]),
    "taken_to_mid_line": (0, 3, [(0, K_JUMP, True, 13),
                                 (14, K_HALT, False, 15)]),
    "extended_truncation": (5, 12, [(16, K_HALT, False, 17)]),
    "self_aligned_span": (5, 16, [(20, K_HALT, False, 21)]),
    "back_to_back_taken": (0, 3, [(0, K_JUMP, True, 9),
                                  (9, K_JUMP, True, 20),
                                  (20, K_HALT, False, 21)]),
    "record_windows": (0, 14, [(2, K_COND, False, 9), (5, K_COND, True, 9),
                               (12, K_JUMP, True, 16),
                               (19, K_HALT, False, 20)]),
    "entry_mid_line": (5, 29, [(6, K_COND, False, 30),
                               (17, K_COND, False, 2),
                               (23, K_CALL, True, 51),
                               (60, K_HALT, False, 61)]),
    "extended_offset_below_width": (19, 30, [(26, K_COND, False, 40),
                                             (48, K_HALT, False, 49)]),
    "extended_offset_at_width": (27, 30, [(35, K_COND, False, 3),
                                          (56, K_HALT, False, 57)]),
    "taken_exit_at_geometry_end": (0, 9, [(7, K_JUMP, True, 40),
                                          (40, K_HALT, False, 41)]),
    "halt_first": (13, 1, [(13, K_HALT, False, 14)]),
    "taken_to_next_pc": (0, 10, [(3, K_JUMP, True, 4),
                                 (9, K_HALT, False, 10)]),
    "long_straight_run": (3, 98, [(100, K_HALT, False, 101)]),
}


class TestHandBuiltTraces:
    def test_straight_line_splits_at_line_boundaries(self):
        # 20 sequential instructions starting at 0, halt at pc 19.
        t = make_trace(*HAND_BUILT["straight_line"])
        bs = segment_blocks(t, GEO8)
        assert list(bs.start) == [0, 8, 16]
        assert list(bs.n_instr) == [8, 8, 4]
        assert list(bs.exit_kind) == [EXIT_FALLTHROUGH, EXIT_FALLTHROUGH,
                                      K_HALT]

    def test_taken_branch_ends_block(self):
        # pc 0..3 then taken jump at 3 -> 16, halt at 16.
        t = make_trace(*HAND_BUILT["taken_branch"])
        bs = segment_blocks(t, GEO8)
        assert list(bs.start) == [0, 16]
        assert list(bs.n_instr) == [4, 1]
        assert bs.exit_kind[0] == K_JUMP
        assert bs.exit_target[0] == 16

    def test_not_taken_cond_does_not_end_block(self):
        # Conditional at 2 not taken; halt at 6: one block of 7.
        t = make_trace(*HAND_BUILT["not_taken_cond"])
        bs = segment_blocks(t, GEO8)
        assert bs.n_blocks == 1
        assert bs.n_instr[0] == 7
        assert bs.n_recs[0] == 2  # the cond and the halt

    def test_not_taken_cond_at_line_end(self):
        # Not-taken cond exactly at pc 7 (line end); falls through to 8.
        t = make_trace(*HAND_BUILT["not_taken_cond_at_line_end"])
        bs = segment_blocks(t, GEO8)
        assert list(bs.start) == [0, 8]
        assert list(bs.n_instr) == [8, 2]
        assert bs.exit_kind[0] == EXIT_FALLTHROUGH
        assert bs.n_recs[0] == 1

    def test_misaligned_start_truncates_block(self):
        # Entry at 5: first block only spans 5..7 in a normal cache.
        t = make_trace(*HAND_BUILT["misaligned_start"])
        bs = segment_blocks(t, GEO8)
        assert list(bs.start) == [5, 8]
        assert list(bs.n_instr) == [3, 7]

    def test_taken_branch_to_middle_of_line(self):
        t = make_trace(*HAND_BUILT["taken_to_mid_line"])
        bs = segment_blocks(t, GEO8)
        assert list(bs.start) == [0, 13]
        assert list(bs.n_instr) == [1, 2]

    def test_extended_cache_reduces_truncation(self):
        geo = CacheGeometry.extended(8)  # line 16, block 8
        t = make_trace(*HAND_BUILT["extended_truncation"])
        bs = segment_blocks(t, geo)
        # From 5, an extended line reaches 15, so a full 8-wide block fits;
        # the next block is cut at the line boundary (13..15), then 16.
        assert list(bs.start) == [5, 13, 16]
        assert list(bs.n_instr) == [8, 3, 1]

    def test_self_aligned_never_truncates(self):
        geo = CacheGeometry.self_aligned(8)
        t = make_trace(*HAND_BUILT["self_aligned_span"])
        bs = segment_blocks(t, geo)
        assert list(bs.start) == [5, 13]
        assert list(bs.n_instr) == [8, 8]

    def test_back_to_back_taken_branches(self):
        t = make_trace(*HAND_BUILT["back_to_back_taken"])
        bs = segment_blocks(t, GEO8)
        assert list(bs.start) == [0, 9, 20]
        assert list(bs.n_instr) == [1, 1, 1]

    def test_record_windows_partition_trace(self):
        t = make_trace(*HAND_BUILT["record_windows"])
        bs = segment_blocks(t, GEO8)
        # Windows are contiguous and cover every record exactly once.
        assert bs.first_rec[0] == 0
        for i in range(1, bs.n_blocks):
            assert bs.first_rec[i] == bs.first_rec[i - 1] + bs.n_recs[i - 1]
        assert bs.first_rec[-1] + bs.n_recs[-1] == t.n_records


class TestReferenceParity:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=GEOMETRY_IDS)
    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_trace(self, case, geometry):
        bs = assert_matches_reference(make_trace(*HAND_BUILT[case]),
                                      geometry)
        assert bs.instructions == HAND_BUILT[case][1]

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_truncated_trace(self, geometry):
        asm = Assembler()
        asm.li("r3", 0)
        asm.li("r4", 1000)
        asm.label("top")
        for _ in range(5):
            asm.addi("r3", "r3", 1)
        asm.blt("r3", "r4", "top")
        asm.halt()
        trace = Machine(asm.assemble()).run(max_instructions=101).trace
        assert trace.truncated
        bs = assert_matches_reference(trace, geometry)
        assert bs.instructions == trace.n_instructions

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=GEOMETRY_IDS)
    @pytest.mark.parametrize("name", SPEC95)
    def test_registered_workload(self, name, geometry):
        assert_matches_reference(load_trace(name, 10_000), geometry)


class TestMalformedTraces:
    def test_record_before_entry_rejected(self):
        t = Trace.from_lists(10, 5, [5, 20], [K_JUMP, K_HALT],
                             [True, False], [20, 21])
        with pytest.raises(ValueError, match="record 0 at pc 5"):
            segment_blocks(t, GEO8)

    def test_record_before_taken_target_rejected(self):
        t = make_trace(0, 9, [(3, K_JUMP, True, 20), (12, K_HALT, False, 13)])
        with pytest.raises(ValueError, match="record 1 at pc 12"):
            segment_blocks(t, GEO8)

    def test_record_before_fall_through_rejected(self):
        t = make_trace(0, 9, [(5, K_COND, False, 30),
                              (5, K_COND, False, 30),
                              (9, K_HALT, False, 10)])
        with pytest.raises(ValueError, match="record 1 at pc 5"):
            segment_blocks(t, GEO8)

    def test_halt_before_last_record_rejected(self):
        t = make_trace(0, 9, [(2, K_HALT, False, 3),
                              (9, K_HALT, False, 10)])
        with pytest.raises(ValueError, match="HALT at record 0"):
            segment_blocks(t, GEO8)

    @pytest.mark.parametrize("n_instructions", [3, 12])
    def test_instruction_count_mismatch_rejected(self, n_instructions):
        # Records cover pc 0..3 (a HALT at 3): four instructions.
        t = make_trace(0, n_instructions, [(3, K_HALT, False, 4)])
        with pytest.raises(ValueError, match="cover 4 instructions"):
            segment_blocks(t, GEO8)
        assert segment_blocks(make_trace(0, 4, [(3, K_HALT, False, 4)]),
                              GEO8).instructions == 4


class TestExecutedPrograms:
    def _trace(self, body):
        asm = Assembler()
        body(asm)
        return Machine(asm.assemble()).run().trace

    def test_loop_blocks(self):
        def body(a):
            a.li("r3", 0)        # 0
            a.li("r4", 3)        # 1
            a.label("top")       # 2
            a.addi("r3", "r3", 1)  # 2
            a.blt("r3", "r4", "top")  # 3
            a.halt()             # 4
        t = self._trace(body)
        bs = segment_blocks(t, GEO8)
        # Block 1: pc 0..3 (branch taken), then 2..3 twice, then 2..4 halt.
        assert list(bs.start) == [0, 2, 2]
        assert list(bs.n_instr) == [4, 2, 3]

    def test_instruction_conservation(self):
        def body(a):
            a.li("r3", 0)
            a.li("r4", 50)
            a.label("top")
            a.addi("r3", "r3", 1)
            a.addi("r5", "r5", 2)
            a.blt("r3", "r4", "top")
            a.halt()
        t = self._trace(body)
        for geo in (GEO8, CacheGeometry.extended(8),
                    CacheGeometry.self_aligned(8), CacheGeometry.normal(4)):
            bs = segment_blocks(t, geo)
            assert bs.instructions == t.n_instructions

    def test_block_width_cap(self):
        def body(a):
            for _ in range(30):
                a.nop()
            a.halt()
        t = self._trace(body)
        bs = segment_blocks(t, CacheGeometry(kind="normal", block_width=4,
                                             line_size=8, n_banks=8))
        assert bs.n_instr.max() <= 4


class TestGeometryValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(kind="weird")

    def test_line_smaller_than_block_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(kind="normal", block_width=8, line_size=4)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(block_width=0)
        with pytest.raises(ValueError):
            CacheGeometry(line_size=0)
        with pytest.raises(ValueError):
            CacheGeometry(n_banks=0)

    def test_block_limit(self):
        assert GEO8.block_limit(0) == 8
        assert GEO8.block_limit(5) == 3
        assert CacheGeometry.extended(8).block_limit(5) == 8
        assert CacheGeometry.extended(8).block_limit(13) == 3
        assert CacheGeometry.self_aligned(8).block_limit(5) == 8

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=GEOMETRY_IDS)
    def test_block_limits_matches_block_limit(self, geometry):
        starts = np.arange(3 * geometry.line_size) + 5 * geometry.line_size
        limits = geometry.block_limits(starts)
        assert limits.dtype == np.int64
        assert limits.tolist() == [geometry.block_limit(int(s))
                                   for s in starts]

    def test_lines_for_block(self):
        assert GEO8.lines_for_block(8, 8) == (1,)
        assert CacheGeometry.self_aligned(8).lines_for_block(5, 8) == (0, 1)
        with pytest.raises(ValueError):
            GEO8.lines_for_block(5, 8)

    def test_counter_position_wraps(self):
        geo = CacheGeometry.extended(8)
        assert geo.counter_position(13) == 5

    def test_bank_of_line(self):
        assert GEO8.bank_of_line(9) == 1
        assert CacheGeometry.self_aligned(8).bank_of_line(17) == 1
