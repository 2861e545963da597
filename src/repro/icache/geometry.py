"""Instruction-cache geometry: line sizes, alignment policy, banking.

The paper assumes a perfect instruction cache: only the *geometry* matters —
how many sequential instructions a single fetch can return from a start
address, and which banks a fetch touches (two blocks fetched in one cycle may
conflict).  Section 4.5 compares three configurations:

* ``normal``: line size equals the block width; a block is truncated at the
  line boundary.
* ``extended``: the line is twice the block width, so fewer blocks are cut
  short by misalignment (only up to ``block_width`` instructions return).
* ``self_aligned``: two consecutive lines are combined, so a block is never
  truncated by alignment; the bank count is doubled to offset the extra
  line accesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

NORMAL = "normal"
EXTENDED = "extended"
SELF_ALIGNED = "self_aligned"

_KINDS = (NORMAL, EXTENDED, SELF_ALIGNED)


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of the (perfect) instruction cache.

    Attributes:
        kind: one of ``normal``, ``extended``, ``self_aligned``.
        block_width: maximum instructions per fetch block (paper: 8).
        line_size: instructions per physical cache line.
        n_banks: number of cache banks (conflicts cost a cycle in dual
            block mode, Table 3).
    """

    kind: str = NORMAL
    block_width: int = 8
    line_size: int = 8
    n_banks: int = 8

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown cache kind: {self.kind!r}")
        if self.block_width < 1:
            raise ValueError("block_width must be positive")
        if self.line_size < 1:
            raise ValueError("line_size must be positive")
        if self.n_banks < 1:
            raise ValueError("n_banks must be positive")
        if self.line_size < self.block_width:
            # A self-aligned block spans two consecutive lines, so it too
            # needs lines at least one block wide.
            raise ValueError(
                f"{self.kind} cache needs line_size >= block_width")

    # ------------------------------------------------------------------
    # Constructors matching the paper's three configurations (Table 6)
    # ------------------------------------------------------------------

    @classmethod
    def normal(cls, block_width: int = 8) -> "CacheGeometry":
        """Line size == block width, 8 banks (paper default)."""
        return cls(NORMAL, block_width, block_width, 8)

    @classmethod
    def extended(cls, block_width: int = 8) -> "CacheGeometry":
        """Line size == 2x block width, 8 banks."""
        return cls(EXTENDED, block_width, 2 * block_width, 8)

    @classmethod
    def self_aligned(cls, block_width: int = 8) -> "CacheGeometry":
        """Two consecutive lines combined per block, 16 banks."""
        return cls(SELF_ALIGNED, block_width, block_width, 16)

    # ------------------------------------------------------------------
    # Geometry queries
    # ------------------------------------------------------------------

    def block_limit(self, start: int) -> int:
        """Maximum instructions a block starting at ``start`` can hold."""
        if self.kind == SELF_ALIGNED:
            return self.block_width
        room = self.line_size - (start % self.line_size)
        return room if room < self.block_width else self.block_width

    def block_limits(self, starts: np.ndarray) -> np.ndarray:
        """:meth:`block_limit` of every address in ``starts`` (``int64``)."""
        starts = np.asarray(starts, dtype=np.int64)
        if self.kind == SELF_ALIGNED:
            return np.full(starts.shape, self.block_width, dtype=np.int64)
        room = self.line_size - starts % self.line_size
        return np.minimum(room, self.block_width, out=room)

    def line_index(self, addr: int) -> int:
        """Physical line index holding ``addr``."""
        return addr // self.line_size

    def lines_for_block(self, start: int, n_instr: int) -> Tuple[int, ...]:
        """Line indices a block fetch touches.

        Normal/extended blocks live in one line by construction; a
        self-aligned block may span two consecutive lines.
        """
        first = self.line_index(start)
        last = self.line_index(start + max(n_instr, 1) - 1)
        if self.kind == SELF_ALIGNED:
            # The hardware always reads both lines of the aligned pair.
            return (first, first + 1)
        if last != first:
            raise ValueError(
                f"block [{start}, +{n_instr}) crosses a line in a "
                f"{self.kind} cache")
        return (first,)

    def bank_of_line(self, line: int) -> int:
        """Bank servicing ``line``."""
        return line % self.n_banks

    def counter_position(self, addr: int) -> int:
        """Position of ``addr`` within a blocked-PHT entry.

        Positions wrap modulo the block width for extended and self-aligned
        caches (Section 4.5: "the values wrap around the PHT block").
        """
        return addr % self.block_width
