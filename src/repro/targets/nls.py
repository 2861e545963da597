"""Next-Line-Set style target arrays (tag-less, direct-mapped).

The paper's default target array is a 256-entry NLS [1], widened so one
entry predicts targets "for each of the possible branch exit positions" of a
block.  As in the paper's methodology, set prediction is not simulated and
targets are full addresses, making this effectively a direct-mapped tag-less
BTB (Section 4's own words).

Being tag-less, an aliased or stale entry silently yields a wrong target —
detected one cycle later as an immediate misfetch, or at branch resolution
as an indirect misfetch (Table 3).

Keying: entries are selected by cache-line index modulo the entry count;
slots within an entry by the branch's position in its line.  A dual array
(Section 3.1) keeps two target sets, both indexed by the address of the
*current second block*, so the same branch may be duplicated across both —
"undesirable duplication ... inherent to the dual target array".  The
grouped engines keep one array per fetch slot
(:class:`~repro.core.multi.MultiTargetArray`).
"""

from __future__ import annotations

from typing import List, Optional


class NLSTargetArray:
    """Single-block tag-less target array.

    Args:
        n_block_entries: number of block entries (paper default 256).
        line_size: slots per entry (one per line position).
    """

    def __init__(self, n_block_entries: int = 256, line_size: int = 8) -> None:
        if n_block_entries < 1:
            raise ValueError("n_block_entries must be positive")
        if line_size < 1:
            raise ValueError("line_size must be positive")
        self.n_block_entries = n_block_entries
        self.line_size = line_size
        self._targets: List[Optional[int]] = (
            [None] * (n_block_entries * line_size))

    def _slot(self, line: int, position: int) -> int:
        return (line % self.n_block_entries) * self.line_size + position

    def lookup(self, line: int, position: int) -> Optional[int]:
        """Predicted target for the branch at (line, position); may alias."""
        return self._targets[self._slot(line, position)]

    def update(self, line: int, position: int, target: int) -> None:
        """Record a resolved taken-branch target."""
        self._targets[self._slot(line, position)] = target

    @property
    def storage_bits(self) -> int:
        """Cost in bits assuming 10-bit line indices (Table 7's default)."""
        return self.n_block_entries * self.line_size * 10
