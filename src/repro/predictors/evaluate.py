"""Direction-accuracy evaluators (Figure 6).

These run just the *conditional-branch direction* part of each scheme over a
trace — no target arrays, penalties or cycle accounting — so history-length
sweeps are cheap.  Accuracy is counted per executed conditional branch, the
paper's metric ("branch misprediction rate").

Both evaluators model the architectural (post-recovery) history: the GHR a
prediction sees reflects actual prior outcomes, which is the standard
trace-driven idealisation and matches the paper's assumption of always-
available bad-branch-recovery entries carrying a corrected GHR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from ..icache.geometry import CacheGeometry
from ..isa.kinds import InstrKind
from ..trace.blocks import BlockStream
from ..trace.record import Trace
from .blocked import BlockedPHT
from .counters import COUNTER_INIT
from .ghr import GlobalHistory
from .scalar import INDEX_GSHARE, ScalarPHT


@dataclass(frozen=True)
class DirectionResult:
    """Outcome of a direction-accuracy run."""

    n_cond: int
    mispredicts: int

    @property
    def misprediction_rate(self) -> float:
        """Fraction of executed conditional branches mispredicted."""
        return self.mispredicts / self.n_cond if self.n_cond else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of conditional branches predicted correctly."""
        return 1.0 - self.misprediction_rate


def evaluate_scalar_direction(trace: Trace,
                              predictor: ScalarPHT) -> DirectionResult:
    """Per-branch two-level prediction with per-branch GHR update."""
    ghr = GlobalHistory(predictor.history_length)
    k_cond = int(InstrKind.COND)

    pcs = trace.pc.tolist()
    kinds = trace.kind.tolist()
    takens = trace.taken.tolist()

    n_cond = 0
    mispredicts = 0
    for i in range(len(pcs)):
        if kinds[i] != k_cond:
            continue
        pc = pcs[i]
        taken = takens[i]
        n_cond += 1
        if predictor.predicts_taken(ghr.value, pc) != taken:
            mispredicts += 1
        predictor.update(ghr.value, pc, taken)
        ghr.shift_in(taken)
    return DirectionResult(n_cond=n_cond, mispredicts=mispredicts)


def evaluate_blocked_direction(blocks: BlockStream,
                               pht: BlockedPHT) -> DirectionResult:
    """Blocked-PHT prediction with per-block GHR update.

    Every conditional branch in a block is predicted from the single entry
    indexed by ``GHR XOR line(block start)``; the GHR shifts once per block
    with all the block's outcomes.
    """
    geometry: CacheGeometry = blocks.geometry
    trace = blocks.trace
    k_cond = int(InstrKind.COND)
    block_width = geometry.block_width

    t_pc = trace.pc.tolist()
    t_kind = trace.kind.tolist()
    t_taken = trace.taken.tolist()

    starts = blocks.start.tolist()
    first_recs = blocks.first_rec.tolist()
    n_recs = blocks.n_recs.tolist()

    ghr = GlobalHistory(pht.history_length)
    n_cond = 0
    mispredicts = 0

    for b in range(len(starts)):
        first = first_recs[b]
        count = n_recs[b]
        if count == 0:
            continue
        base = pht.index(ghr.value, starts[b] // block_width)
        outcomes = []
        for r in range(first, first + count):
            if t_kind[r] != k_cond:
                continue
            pc = t_pc[r]
            taken = t_taken[r]
            pos = pht.position(pc)
            n_cond += 1
            if pht.predicts_taken(base, pos) != taken:
                mispredicts += 1
            pht.update(base, pos, taken)
            outcomes.append(taken)
        if outcomes:
            ghr.shift_in_block(outcomes)
    return DirectionResult(n_cond=n_cond, mispredicts=mispredicts)


# ----------------------------------------------------------------------
# Figure 6 sweep
# ----------------------------------------------------------------------
#
# Both evaluators above are trace-driven with architectural history: the
# GHR a prediction sees is a pure function of the *trace's* conditional
# outcomes, never of predictor state.  That makes the whole sweep
# vectorizable:
#
# 1. The GHR value stream is a sliding bit-window over the conditional
#    outcome stream (one shift per branch for the scalar scheme, one
#    multi-bit shift per block for the blocked scheme — but the cumulative
#    bit stream is identical, only the sampling points differ).
# 2. PHT slot indices are then elementwise integer arithmetic.
# 3. Each visit predicts from its counter and then trains it, so the
#    visit stream is a counter write stream and every prediction is the
#    state its write found: one :func:`repro.core.kernels.scan_writes`
#    call, the same counter scan the fetch engines use.
#
# The sweep is bit-exact with the reference evaluators, which
# tests/predictors/test_evaluate_vectorized.py locks down.


def _cond_streams(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """(pc, taken) arrays over the executed conditional branches."""
    mask = trace.cond_mask
    return trace.pc[mask].astype(np.int64), trace.taken[mask]


def _scalar_slots(pcs: np.ndarray, ghr_values: np.ndarray,
                  predictor: ScalarPHT) -> np.ndarray:
    """Vectorized :meth:`ScalarPHT._slot` over per-branch streams."""
    tables = pcs % predictor.n_tables
    if predictor.index_mode == INDEX_GSHARE:
        entries = (ghr_values ^ (pcs // predictor.n_tables)) & predictor.mask
    else:
        entries = ghr_values & predictor.mask
    return tables * predictor.n_entries + entries


def _block_sampling(blocks: BlockStream) -> Tuple[np.ndarray, np.ndarray]:
    """Per-conditional block mapping shared by every blocked predictor.

    Returns ``(line_per_cond, ghr_shifts_per_cond)``: for each executed
    conditional, the cache line of its block's start address and how many
    conditional outcomes precede its block (i.e. which entry of the packed
    GHR stream the block predicted from).  Depends only on the
    segmentation, not on any predictor parameter.
    """
    trace = blocks.trace
    cond_mask = trace.cond_mask
    # Conditionals preceding each record, then sampled per block.
    cond_prefix = np.zeros(len(trace.pc) + 1, dtype=np.int64)
    np.cumsum(cond_mask, out=cond_prefix[1:])
    conds_before_block = cond_prefix[blocks.first_rec]
    conds_in_block = (cond_prefix[blocks.first_rec + blocks.n_recs]
                      - conds_before_block)

    block_of_cond = np.repeat(np.arange(len(blocks.start)), conds_in_block)
    # int64 lines: the slot arithmetic multiplies them into table bases.
    lines = blocks.start.astype(np.int64) // blocks.geometry.block_width
    return lines[block_of_cond], conds_before_block[block_of_cond]


def _blocked_slots_from(pht: BlockedPHT, pcs: np.ndarray,
                        ghr_values: np.ndarray, line_per_cond: np.ndarray,
                        shifts_per_cond: np.ndarray) -> np.ndarray:
    """Blocked-PHT slot stream from precomputed block sampling."""
    # base = (table * n_entries + ((ghr ^ line) & mask)) * block_width
    ghr_per_cond = ghr_values[shifts_per_cond]
    table_per_cond = (line_per_cond % pht.n_tables) * pht.n_entries
    entry_per_cond = (ghr_per_cond ^ line_per_cond) & pht.mask
    base_per_cond = (table_per_cond + entry_per_cond) * pht.block_width
    return base_per_cond + (pcs % pht.block_width)


def direction_accuracy_sweep(
        trace: Trace, blocks: BlockStream,
        history_lengths: Iterable[int], block_width: int = 8,
) -> Dict[int, Tuple[DirectionResult, DirectionResult]]:
    """Figure 6 kernel: both schemes across history lengths, one trace.

    Returns ``{h: (blocked result, scalar result)}`` for fresh
    ``BlockedPHT(h, block_width)`` / ``ScalarPHT(h, block_width)``
    predictors.  Every (scheme, history length) stream is offset into its
    own disjoint slot range and the whole sweep is resolved in a *single*
    counter scan, so the per-pass numpy overhead is paid once per trace
    rather than once per configuration.  Bit-exact with running the
    sequential evaluators once per history length.
    """
    # Imported here: ``repro.core`` loads every engine, which a caller
    # of the predictors alone should not pay for.
    from ..core.kernels import TAKEN_MIN, packed_history, scan_writes
    from ..runtime import heap

    heap.keep_freed_memory()  # once per process: reuse freed temporaries
    hs = list(history_lengths)
    pcs, outcomes = _cond_streams(trace)
    n_cond = len(pcs)
    if n_cond == 0 or not hs:
        empty = DirectionResult(n_cond=0, mispredicts=0)
        return {h: (empty, empty) for h in hs}

    line_per_cond, shifts_per_cond = _block_sampling(blocks)
    taken = np.asarray(outcomes, dtype=bool)

    streams = []            # per-config slot arrays, config order
    sizes = []              # matching table sizes
    for h in hs:
        packed = packed_history(outcomes, h)
        pht = BlockedPHT(history_length=h, block_width=block_width)
        streams.append(_blocked_slots_from(pht, pcs, packed,
                                           line_per_cond, shifts_per_cond))
        sizes.append(pht.n_tables * pht.n_entries * pht.block_width)
        scalar = ScalarPHT(history_length=h, n_tables=block_width)
        # GHR before conditional t = first t outcomes shifted in.
        streams.append(_scalar_slots(pcs, packed[:-1], scalar))
        sizes.append(scalar.n_tables * scalar.n_entries)

    stride = max(sizes)
    all_slots = np.concatenate(
        [s + np.int64(i) * stride for i, s in enumerate(streams)])
    all_taken = np.tile(taken, len(streams))
    cold = np.full(len(streams) * stride, COUNTER_INIT, dtype=np.int8)
    scan = scan_writes(cold, all_slots, all_taken)
    wrong = (scan.before >= TAKEN_MIN) != scan.taken
    mispredicts = np.bincount(scan.order[wrong] // n_cond,
                              minlength=len(streams))

    results: Dict[int, Tuple[DirectionResult, DirectionResult]] = {}
    for i, h in enumerate(hs):
        blocked = DirectionResult(n_cond=n_cond,
                                  mispredicts=int(mispredicts[2 * i]))
        scalar = DirectionResult(n_cond=n_cond,
                                 mispredicts=int(mispredicts[2 * i + 1]))
        results[h] = (blocked, scalar)
    return results
