"""Bank-conflict model for multi-block fetching.

"Since multiple blocks are being fetched using different cache lines, a
multiple banked instruction cache is required.  Since two lines are fetched
simultaneously, they may map into the same cache bank.  Should a conflict
arise, the second line is read the next cycle."  (Section 3.3)

The paper's defaults: 8 banks for normal/extended caches, 16 for the
self-aligned cache (which reads up to four lines per pair).
"""

from __future__ import annotations

from typing import List, Sequence

from .geometry import CacheGeometry


def group_conflicts(geometry: CacheGeometry,
                    line_lists: Sequence[Sequence[int]]) -> List[bool]:
    """Which blocks of one fetch group collide on a bank, in fetch order.

    Each block claims its lines in turn.  A line already claimed is read
    once and feeds every block that needs it, so it never conflicts; a
    line whose bank another claimed line holds is a conflict (and stays
    unclaimed), which stalls its block a cycle (Table 3: i-cache bank
    conflict, 0 for block 1 / 1 for block 2).  This is the scalar form
    of :func:`repro.core.kernels.bank_conflicts`.
    """
    claimed_lines, claimed_banks = set(), set()
    out = []
    for lines in line_lists:
        conflict = False
        for line in lines:
            if line in claimed_lines:
                continue
            bank = geometry.bank_of_line(line)
            if bank in claimed_banks:
                conflict = True
            else:
                claimed_lines.add(line)
                claimed_banks.add(bank)
        out.append(conflict)
    return out


def blocks_conflict(geometry: CacheGeometry,
                    first_lines: Sequence[int],
                    second_lines: Sequence[int]) -> bool:
    """True when the second block of a pair stalls on a bank conflict.

    The pair form of :func:`group_conflicts`: the second block collides
    with one of the first block's distinct lines or with itself
    (self-aligned wrap); identical lines never conflict.
    """
    return group_conflicts(geometry, [first_lines, second_lines])[1]


def block_lines(geometry: CacheGeometry, start: int, n_instr: int
                ) -> Sequence[int]:
    """Lines a block fetch reads (delegates to the geometry)."""
    return geometry.lines_for_block(start, n_instr)
