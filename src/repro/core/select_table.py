"""Select tables for multiple-block prediction (Section 3).

The select table (ST) stores the multiplexer selection of a previous
prediction so the second block of a pair can be predicted before the first
block's BIT/PHT information exists — "the solution to this problem is
essentially to predict our prediction".

An entry holds the selector plus the GHR-update payload (the number of
not-taken branches and a taken/fall-through bit) the pipeline needs to keep
history rolling; both are verified one stage later against the real BIT/PHT
walk, charging misselect or GHR penalties on disagreement.

Multiple STs (Section 4.3) are selected by the low bits of the *starting
position* of the indexing block, disambiguating entries for blocks that
enter the same line at different offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..predictors.ghr import BlockOutcomes
from .selection import FALLTHROUGH_SELECTOR, Selector


@dataclass
class SelectEntry:
    """One stored second-block prediction."""

    selector: Selector
    outcomes: BlockOutcomes

    @classmethod
    def default(cls) -> "SelectEntry":
        """Cold-entry behaviour: predict fall-through, no branches."""
        return cls(FALLTHROUGH_SELECTOR, BlockOutcomes(0, False))


class SelectTable:
    """Single-selection ST bank set.

    Args:
        history_length: entries per table = ``2**history_length``
            (paper default 10 -> 1024).
        n_tables: number of STs (1, 2, 4 or 8 in Figure 8).
        line_size: used to derive the starting position that picks a table.
    """

    def __init__(self, history_length: int = 10, n_tables: int = 1,
                 line_size: int = 8) -> None:
        if history_length < 1:
            raise ValueError("history_length must be positive")
        if n_tables < 1:
            raise ValueError("n_tables must be positive")
        self.history_length = history_length
        self.n_tables = n_tables
        self.line_size = line_size
        self.n_entries = 1 << history_length
        self.mask = self.n_entries - 1
        self._entries: List[Optional[SelectEntry]] = (
            [None] * (n_tables * self.n_entries))

    def _slot(self, index: int, start_address: int) -> int:
        table = (start_address % self.line_size) % self.n_tables
        return table * self.n_entries + (index & self.mask)

    def read(self, index: int, start_address: int) -> SelectEntry:
        """Stored prediction (cold entries read as fall-through)."""
        entry = self._entries[self._slot(index, start_address)]
        return entry if entry is not None else SelectEntry.default()

    def write(self, index: int, start_address: int,
              entry: SelectEntry) -> None:
        """Replace the stored prediction (on verification mismatch or
        simply to keep the table fresh)."""
        self._entries[self._slot(index, start_address)] = entry

    @property
    def storage_bits(self) -> int:
        """Cost per Table 7: ~8 bits per entry (selector + GHR payload)."""
        return 8 * self.n_entries * self.n_tables
