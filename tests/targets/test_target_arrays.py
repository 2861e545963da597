"""NLS and BTB target-array behaviour: aliasing, tags, LRU, duality."""

import pytest

from repro.targets import (
    BlockBTB,
    DualBTBTargetArray,
    NLSTargetArray,
)


class TestNLS:
    def test_validation(self):
        with pytest.raises(ValueError):
            NLSTargetArray(0)
        with pytest.raises(ValueError):
            NLSTargetArray(4, line_size=0)

    def test_cold_lookup_is_none(self):
        nls = NLSTargetArray(16, 8)
        assert nls.lookup(3, 5) is None

    def test_update_then_lookup(self):
        nls = NLSTargetArray(16, 8)
        nls.update(3, 5, 1234)
        assert nls.lookup(3, 5) == 1234

    def test_positions_independent(self):
        nls = NLSTargetArray(16, 8)
        nls.update(3, 5, 111)
        nls.update(3, 6, 222)
        assert nls.lookup(3, 5) == 111
        assert nls.lookup(3, 6) == 222

    def test_tagless_aliasing_returns_stale_target(self):
        nls = NLSTargetArray(16, 8)
        nls.update(3, 5, 111)
        # Line 19 maps onto the same entry (19 % 16 == 3): no tag check.
        assert nls.lookup(19, 5) == 111
        nls.update(19, 5, 999)
        assert nls.lookup(3, 5) == 999  # clobbered — the NLS cost model

    def test_storage_matches_table7_default(self):
        # 256 entries * 8 positions * 10-bit line index = 20 Kbits.
        assert NLSTargetArray(256, 8).storage_bits == 20 * 1024


class TestBTB:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockBTB(0)
        with pytest.raises(ValueError):
            BlockBTB(10, associativity=4)  # not a multiple
        with pytest.raises(ValueError):
            BlockBTB(8, associativity=0)

    def test_miss_returns_none(self):
        btb = BlockBTB(8, 8, associativity=4)
        assert btb.lookup(5, 3) is None

    def test_hit_after_update(self):
        btb = BlockBTB(8, 8, associativity=4)
        btb.update(5, 3, 777)
        assert btb.lookup(5, 3) == 777

    def test_tag_check_prevents_aliasing(self):
        btb = BlockBTB(8, 8, associativity=4)  # 2 sets
        btb.update(0, 3, 111)
        # Line 2 maps to the same set but has a different tag: miss, not
        # a stale hit (the BTB's advantage over the tag-less NLS).
        assert btb.lookup(2, 3) is None

    def test_lru_evicts_least_recent(self):
        btb = BlockBTB(4, 8, associativity=2)  # 2 sets, 2 ways
        btb.update(0, 0, 100)   # set 0
        btb.update(2, 0, 200)   # set 0 (2 % 2 == 0)
        btb.lookup(0, 0)        # touch line 0 -> line 2 becomes LRU
        btb.update(4, 0, 300)   # set 0, evicts line 2
        assert btb.lookup(0, 0) == 100
        assert btb.lookup(2, 0) is None
        assert btb.lookup(4, 0) == 300

    def test_same_line_different_positions_share_entry(self):
        btb = BlockBTB(4, 8, associativity=2)
        btb.update(1, 2, 10)
        btb.update(1, 7, 20)
        assert btb.lookup(1, 2) == 10
        assert btb.lookup(1, 7) == 20


class TestDualBTB:
    def test_target_number_in_tag(self):
        dual = DualBTBTargetArray(8, 8, associativity=4)
        dual.update(1, 6, 2, 123)
        dual.update(2, 6, 2, 456)
        assert dual.lookup(1, 6, 2) == 123
        assert dual.lookup(2, 6, 2) == 456

    def test_which_validated(self):
        dual = DualBTBTargetArray(8, 8)
        with pytest.raises(ValueError):
            dual.lookup(3, 0, 0)
        with pytest.raises(ValueError):
            dual.update(0, 0, 0, 9)

    def test_shared_capacity_across_targets(self):
        # 4 entries, 1 set of 4 ways: entries for which=1 and which=2
        # compete for the same ways (the paper's shared-BTB design).
        dual = DualBTBTargetArray(4, 8, associativity=4)
        for line in range(4):
            dual.update(1, line * 1 + 0, 0, line)
        dual.update(2, 99, 0, 999)  # fifth entry evicts an LRU way
        hits = sum(dual.lookup(1, line, 0) is not None for line in range(4))
        assert hits == 3
        assert dual.lookup(2, 99, 0) == 999
