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

Segmentation is array arithmetic in three levels, with no per-block loop:

* **runs**: the taken records and the HALT split the trace into
  straight-line runs.  Run 0 starts at ``entry_pc``; every later run
  starts at the previous run-ending record's target.
* **segments**: a normal or extended run is cut at every line boundary
  (one segment per line it touches); a self-aligned run is one segment.
* **blocks**: each segment holds one block every ``block_width``
  instructions.  Each block fills its geometry limit, except a run's last
  block, which stops at the run-ending record and takes its kind and
  target.

A record's block follows directly from its run, its line and its offset
in the segment, so the record windows are one ``bincount`` away.

The arithmetic runs in ``int64``; the stream keeps each array at its
natural width (:data:`STREAM_DTYPES`): ``int32`` for addresses and record
indices, ``int8`` for counts bounded by the block width.  The widths are
signed, so mixing them with ``int64`` never promotes to ``float64``, and
:func:`segment_blocks` rejects a trace or geometry whose values would not
fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..icache.geometry import SELF_ALIGNED, CacheGeometry
from ..isa.kinds import InstrKind
from .record import Trace

#: exit_kind value for a block that fell through at the geometry limit.
EXIT_FALLTHROUGH = 0

#: In-memory dtype of every per-block array of a :class:`BlockStream`,
#: whether segmented or loaded from the cache.
STREAM_DTYPES = {
    "start": np.int32, "n_instr": np.int8, "exit_kind": np.uint8,
    "exit_target": np.int32, "first_rec": np.int32, "n_recs": np.int8,
}

#: Widest block :data:`STREAM_DTYPES` holds: counts and offsets within
#: a block are ``int8``, and offset ``MAX_BLOCK_WIDTH`` stays free for
#: the fall-through sentinel of the compiled exits.
MAX_BLOCK_WIDTH = 127

#: Addresses, record counts and block counts stay below this (``int32``).
MAX_INDEX = 1 << 31


@dataclass
class BlockStream:
    """The segmented fetch blocks of one trace under one geometry.

    All arrays have one entry per block, in fetch order:

    Attributes (dtypes in :data:`STREAM_DTYPES`):
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
    start: np.ndarray        #: int32[n]
    n_instr: np.ndarray      #: int8[n]
    exit_kind: np.ndarray    #: uint8[n]
    exit_target: np.ndarray  #: int32[n]
    first_rec: np.ndarray    #: int32[n]
    n_recs: np.ndarray       #: int8[n]

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


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """Start offset of each group of ``counts`` consecutive items."""
    firsts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=firsts[1:])
    return firsts


def _check_fetch_points(trace: Trace, pc: np.ndarray,
                        is_halt: np.ndarray) -> None:
    """Reject a record that precedes the point where fetch reached it.

    Fetch reaches record ``i`` at ``entry_pc`` (``i == 0``), at the
    previous record's target when that was taken, and just past the
    previous record otherwise.  A record before that point would give a
    block a non-positive length.
    """
    if np.any(is_halt[:-1]):
        first = int(np.flatnonzero(is_halt)[0])
        raise ValueError(
            f"malformed trace: HALT at record {first} is not the last")
    taken = trace.taken[:-1]
    fetch = np.empty_like(pc)
    fetch[0] = trace.entry_pc
    np.add(pc[:-1], 1, out=fetch[1:])
    fetch[1:][taken] = trace.target[:-1][taken]
    bad = np.flatnonzero(pc < fetch)
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"malformed trace: record {i} at pc {int(pc[i])} precedes "
            f"its fetch point {int(fetch[i])}")


def _check_widths(trace: Trace, geometry: CacheGeometry) -> None:
    """Reject a trace whose blocks :data:`STREAM_DTYPES` cannot hold.

    Every block address lies within a block width of a record's pc or
    target, and there are no more blocks than instructions, so bounding
    those below :data:`MAX_INDEX` bounds the stream (``start + limit``
    cannot wrap in ``int32`` either).
    """
    width = geometry.block_width
    if width > MAX_BLOCK_WIDTH:
        raise ValueError(
            f"block width {width} exceeds {MAX_BLOCK_WIDTH}")
    top = max(trace.entry_pc, int(trace.pc.max()),
              int(trace.target.max())) + width
    if top >= MAX_INDEX:
        raise ValueError(f"block addresses reach {top}, past 2**31")
    count = max(trace.n_records, trace.n_instructions)
    if count >= MAX_INDEX:
        raise ValueError(f"{count} records or instructions exceed 2**31")


def _as_stream(field: str, array: np.ndarray) -> np.ndarray:
    """``array`` at its :data:`STREAM_DTYPES` width."""
    return array.astype(STREAM_DTYPES[field], copy=False)


def segment_blocks(trace: Trace, geometry: CacheGeometry) -> BlockStream:
    """Split ``trace`` into fetch blocks under ``geometry``.

    Raises :class:`ValueError` when a record precedes the address fetch
    reached it at, when a HALT record is not the last, when the blocks
    cover a different instruction count than ``trace.n_instructions``
    (the engines align each block's records with its instructions), or
    when a value does not fit its :data:`STREAM_DTYPES` width.
    """
    pc = trace.pc
    kind = trace.kind
    is_halt = kind == int(InstrKind.HALT)
    _check_fetch_points(trace, pc, is_halt)
    _check_widths(trace, geometry)
    width = geometry.block_width

    # Runs: [run_start, run_end], each closed by a taken record or HALT.
    end_rec = np.flatnonzero(trace.taken | is_halt)
    run_end = pc[end_rec]
    run_start = np.empty_like(run_end)
    run_start[0] = trace.entry_pc
    run_start[1:] = trace.target[end_rec[:-1]]
    rec_run = np.zeros(len(pc), dtype=np.int64)
    rec_run[end_rec[:-1] + 1] = 1
    np.cumsum(rec_run, out=rec_run)

    # Segments: one per (run, line) touched, or one per self-aligned run.
    if geometry.kind == SELF_ALIGNED:
        seg_start, seg_end = run_start, run_end
        rec_seg = rec_run
    else:
        line_size = geometry.line_size
        first_line = run_start // line_size
        segs = run_end // line_size - first_line + 1
        line_of_seg0 = first_line - _exclusive_cumsum(segs)
        seg_run = np.repeat(np.arange(len(segs)), segs)
        seg_line = np.arange(len(seg_run)) + line_of_seg0[seg_run]
        seg_start = np.maximum(seg_line * line_size, run_start[seg_run])
        seg_end = np.minimum(seg_line * line_size + (line_size - 1),
                             run_end[seg_run])
        del seg_run, seg_line
        rec_seg = pc // line_size - line_of_seg0[rec_run]
    del rec_run

    # Blocks: every ``width`` instructions from each segment's start.
    per_seg = (seg_end - seg_start) // width + 1
    del seg_end
    first_block = _exclusive_cumsum(per_seg)
    n_blocks = int(first_block[-1] + per_seg[-1])
    start = np.repeat(seg_start - first_block * width, per_seg)
    start += np.arange(0, n_blocks * width, width, dtype=np.int64)
    del per_seg

    rec_block = (first_block[rec_seg]
                 + (pc - seg_start[rec_seg]) // width)
    del rec_seg, seg_start, first_block
    # Each array narrows as soon as it is final, which keeps the int64
    # working set small.
    n_recs = np.bincount(rec_block, minlength=n_blocks)
    first_rec = _as_stream("first_rec", _exclusive_cumsum(n_recs))
    n_recs = _as_stream("n_recs", n_recs)
    last = rec_block[end_rec]  # each run's last block
    del rec_block

    n_instr = geometry.block_limits(start)
    n_instr[last] = run_end + 1 - start[last]
    covered = int(n_instr.sum())
    if covered != trace.n_instructions:
        raise ValueError(
            f"malformed trace: its records cover {covered} instructions, "
            f"not n_instructions={trace.n_instructions}")
    exit_target = _as_stream("exit_target", start + n_instr)
    taken_exit = ~is_halt[end_rec]
    exit_target[last[taken_exit]] = trace.target[end_rec[taken_exit]]
    exit_kind = np.zeros(n_blocks, dtype=STREAM_DTYPES["exit_kind"])
    exit_kind[last] = kind[end_rec]

    return BlockStream(
        trace=trace,
        geometry=geometry,
        start=_as_stream("start", start),
        n_instr=_as_stream("n_instr", n_instr),
        exit_kind=exit_kind,
        exit_target=exit_target,
        first_rec=first_rec,
        n_recs=n_recs,
    )
