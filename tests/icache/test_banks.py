"""Bank-conflict model tests."""

from repro.icache import (CacheGeometry, block_lines, blocks_conflict,
                          group_conflicts)


GEO = CacheGeometry.normal(8)          # 8 banks
SA = CacheGeometry.self_aligned(8)     # 16 banks


class TestConflicts:
    def test_different_banks_no_conflict(self):
        assert not blocks_conflict(GEO, [0], [1])

    def test_same_bank_conflicts(self):
        assert blocks_conflict(GEO, [0], [8])  # both bank 0

    def test_same_line_is_shared_not_conflicting(self):
        # Both blocks in the same line: one read serves both.
        assert not blocks_conflict(GEO, [5], [5])

    def test_self_aligned_pairs(self):
        # Block one reads lines 0,1; block two reads lines 16,17 -> banks
        # (0,1) vs (0,1) with 16 banks: conflict.
        assert blocks_conflict(SA, [0, 1], [16, 17])
        # Lines 2,3 do not collide with 0,1.
        assert not blocks_conflict(SA, [0, 1], [2, 3])

    def test_second_block_internal_conflict(self):
        # A single block needing two lines on one bank also stalls.
        assert blocks_conflict(SA, [0, 1], [5, 21])  # 5 and 21 share bank 5

    def test_empty_second_block_never_conflicts(self):
        assert not blocks_conflict(GEO, [0], [])


class TestBlockLines:
    def test_normal_single_line(self):
        assert tuple(block_lines(GEO, 8, 8)) == (1,)

    def test_self_aligned_two_lines(self):
        assert tuple(block_lines(SA, 5, 8)) == (0, 1)


class TestGroupConflicts:
    def test_later_blocks_check_every_earlier_claim(self):
        # Line 16 (bank 0) collides with block 0's line 0; block 2's
        # line 17 collides with block 0's line 1, while its line 5 is
        # already read for block 1 and costs nothing.
        assert group_conflicts(SA, [[0, 1], [5, 6], [5, 17]]) \
            == [False, False, True]
        assert group_conflicts(GEO, [[3], [3], [11]]) == [False, False, True]
