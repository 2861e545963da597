"""Select table tests: indexing, banks, cold behaviour."""

import pytest

from repro.core import (
    FALLTHROUGH_SELECTOR,
    SRC_ARRAY,
    SelectEntry,
    SelectTable,
)
from repro.predictors import BlockOutcomes


def entry(source=SRC_ARRAY, offset=3, n_nt=1, taken=True):
    return SelectEntry((source, offset, None), BlockOutcomes(n_nt, taken))


class TestSelectTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            SelectTable(history_length=0)
        with pytest.raises(ValueError):
            SelectTable(n_tables=0)

    def test_cold_read_is_fallthrough(self):
        st = SelectTable(history_length=4)
        stored = st.read(7, 0)
        assert stored.selector == FALLTHROUGH_SELECTOR
        assert stored.outcomes == BlockOutcomes(0, False)

    def test_write_read_roundtrip(self):
        st = SelectTable(history_length=4)
        e = entry()
        st.write(9, 16, e)
        assert st.read(9, 16) is e

    def test_index_masked(self):
        st = SelectTable(history_length=4)  # 16 entries
        e = entry()
        st.write(3 + 16, 0, e)
        assert st.read(3, 0) is e

    def test_multiple_tables_split_by_start_position(self):
        st = SelectTable(history_length=4, n_tables=2, line_size=8)
        even = entry(offset=0)
        odd = entry(offset=1)
        st.write(5, 8, even)   # position 0 -> table 0
        st.write(5, 9, odd)    # position 1 -> table 1
        assert st.read(5, 8) is even
        assert st.read(5, 9) is odd

    def test_single_table_aliases_start_positions(self):
        st = SelectTable(history_length=4, n_tables=1, line_size=8)
        st.write(5, 8, entry(offset=0))
        st.write(5, 9, entry(offset=1))
        assert st.read(5, 8).selector[1] == 1  # clobbered

    def test_storage_bits_matches_table7(self):
        # Default 1024 entries * 8 bits = 8 Kbits.
        assert SelectTable(history_length=10).storage_bits == 8 * 1024

    def test_eight_tables_grow_storage(self):
        assert SelectTable(history_length=10, n_tables=8).storage_bits == \
            8 * 8 * 1024
