"""Fetch-block segmentation of a correct-path trace.

A fetch block is a run of sequential instructions ending at the first *taken*
control transfer, at the geometry limit (block width or line end), or at
HALT.  Not-taken conditional branches do **not** end a block — predicting
several of them per block is the whole point of the paper's blocked PHT.

Because the trace is the correct path and the paper assumes perfect recovery
(BBR entries always available, perfect i-cache), block boundaries depend only
on the trace and the cache geometry, never on predictor state.  Segmentation
therefore runs once per (trace, geometry) and every engine replays the same
block stream, charging penalty cycles for its own mispredictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..icache.geometry import CacheGeometry
from ..isa.kinds import InstrKind
from .record import Trace

#: exit_kind value for a block that fell through at the geometry limit.
EXIT_FALLTHROUGH = 0


@dataclass
class BlockStream:
    """The segmented fetch blocks of one trace under one geometry.

    All arrays have one entry per block, in fetch order:

    Attributes:
        start: first instruction address of the block.
        n_instr: valid instructions in the block (the paper's IPB averages
            over this).
        exit_kind: :class:`InstrKind` of the taken exit transfer,
            ``EXIT_FALLTHROUGH`` (0) when the block ended at the geometry
            limit, or ``InstrKind.HALT`` for the final block.
        exit_target: address control went to (next block start); for
            fall-through blocks this is the next sequential address.
        first_rec/n_recs: window into the trace's record arrays covering
            this block's control records (not-taken conditionals plus the
            taken exit, if any).
    """

    trace: Trace
    geometry: CacheGeometry
    start: np.ndarray
    n_instr: np.ndarray
    exit_kind: np.ndarray
    exit_target: np.ndarray
    first_rec: np.ndarray
    n_recs: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    @property
    def n_blocks(self) -> int:
        """Number of fetch blocks in the stream."""
        return len(self.start)

    @property
    def instructions(self) -> int:
        """Total instructions across all blocks (== trace length)."""
        return int(self.n_instr.sum())

    @property
    def ipb(self) -> float:
        """Mean instructions per block (the paper's IPB metric)."""
        return float(self.n_instr.mean()) if len(self.start) else 0.0


def segment_blocks(trace: Trace, geometry: CacheGeometry) -> BlockStream:
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
        start=np.asarray(b_start, dtype=np.int64),
        n_instr=np.asarray(b_n, dtype=np.int64),
        exit_kind=np.asarray(b_exit_kind, dtype=np.uint8),
        exit_target=np.asarray(b_exit_target, dtype=np.int64),
        first_rec=np.asarray(b_first_rec, dtype=np.int64),
        n_recs=np.asarray(b_n_recs, dtype=np.int64),
    )
