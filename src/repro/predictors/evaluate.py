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
from .counters import COUNTER_INIT, COUNTER_MAX, COUNTER_MIN
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
# Vectorized kernels
# ----------------------------------------------------------------------
#
# Both evaluators above are trace-driven with architectural history: the
# GHR a prediction sees is a pure function of the *trace's* conditional
# outcomes, never of predictor state.  That makes the whole evaluation
# vectorizable:
#
# 1. The GHR value stream is a sliding bit-window over the conditional
#    outcome stream (one shift per branch for the scalar scheme, one
#    multi-bit shift per block for the blocked scheme — but the cumulative
#    bit stream is identical, only the sampling points differ).
# 2. PHT slot indices are then elementwise integer arithmetic.
# 3. The 2-bit saturating counters are resolved with a segmented parallel
#    scan: a counter update is the clamped shift  s -> min(hi, max(lo,
#    s+k)),  and clamped shifts compose into clamped shifts, so the state
#    *before* every visit of every slot falls out of an O(log n)-pass
#    Hillis-Steele scan over the visits grouped (stably) by slot.
#
# The kernels are bit-exact with the reference evaluators — same
# misprediction counts and same final counter states — which
# tests/predictors/test_evaluate_vectorized.py locks down.

#: Sentinel clamp bounds that can never bind for a 2-bit counter.
_NO_LO = np.int64(-8)
_NO_HI = np.int64(8)


def _grouping_order(slots: np.ndarray) -> np.ndarray:
    """Stable argsort of a nonnegative integer array.

    numpy's ``kind="stable"`` is an O(n) radix sort only for <=16-bit
    dtypes, so keys below 2**16 sort as ``uint16`` and wide-but-bounded
    keys (PHT slots) as two 16-bit LSD radix passes: stable-sort by the
    low half, then stable-sort that order by the high half.
    """
    top = int(slots.max()) if len(slots) else 0
    if top < (1 << 16):
        return np.argsort(slots.astype(np.uint16), kind="stable")
    if len(slots) < (1 << 14) or top >= (1 << 32):
        return np.argsort(slots, kind="stable")
    low = (slots & np.int64(0xFFFF)).astype(np.uint16)
    high = (slots >> np.int64(16)).astype(np.uint16)
    order = np.argsort(low, kind="stable")
    return order[np.argsort(high[order], kind="stable")]


def packed_history(outcomes: np.ndarray, history_length: int) -> np.ndarray:
    """GHR value after each prefix of ``outcomes`` (newest bit in the LSB).

    Returns an ``int64`` array of length ``len(outcomes) + 1`` whose entry
    ``t`` is the register value once the first ``t`` outcomes have been
    shifted in (entry 0 is the all-zeros cold register).
    """
    outcomes = np.asarray(outcomes, dtype=np.int64)
    n = len(outcomes)
    padded = np.zeros(n + history_length, dtype=np.int64)
    padded[history_length:] = outcomes
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, history_length)[:n + 1]
    weights = (np.int64(1) << np.arange(history_length - 1, -1, -1,
                                        dtype=np.int64))
    return windows @ weights


def _clamped_scan_states(s_taken: np.ndarray, seg_start: np.ndarray):
    """Segmented clamped-shift scan over an already-grouped visit stream.

    ``s_taken`` holds the visit outcomes grouped by slot and ``seg_start``
    flags the first visit of each slot.  Returns ``(state_before,
    state_after)``: the counter value each visit predicted from and the
    value it left behind.  ``len(s_taken)`` must be positive.
    """
    # Per-visit transfer function as a clamped shift (k, lo, hi):
    # taken  -> s+1 capped at COUNTER_MAX;  not-taken -> s-1 floored at 0.
    k = np.where(s_taken, 1, -1)
    lo = np.where(s_taken, _NO_LO, COUNTER_MIN)
    hi = np.where(s_taken, COUNTER_MAX, _NO_HI)
    return _clamped_scan_transfers(k, lo, hi, seg_start)


def _clamped_scan_transfers(k: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                            seg_start: np.ndarray, init=None):
    """Segmented scan over arbitrary per-visit clamped-shift transfers.

    Generalisation of :func:`_clamped_scan_states` used by the engine
    kernels (:mod:`repro.core.kernels`), whose visit streams interleave
    counter *reads* — identity transfers ``(0, _NO_LO, _NO_HI)`` — with
    the training writes.  ``k``/``lo``/``hi`` give each visit's transfer
    ``s -> min(hi, max(lo, s + k))`` in grouped order; ``seg_start``
    flags the first visit of each slot.  ``init``, when given, holds each
    visit's segment's starting counter value (constant within a segment);
    it defaults to ``COUNTER_INIT`` everywhere.  Returns ``(state_before,
    state_after)`` exactly as :func:`_clamped_scan_states` does.
    """
    n = len(k)
    # The composite over a window is again a clamped shift; its net shift
    # is bounded by the window length, so int16 holds every composite for
    # any segment shorter than 32k visits (int64 otherwise).
    indices = np.arange(n, dtype=np.int64)
    pos = indices - np.maximum.accumulate(np.where(seg_start, indices, 0))
    max_pos = int(pos.max())
    dtype = np.int16 if max_pos < 30000 else np.int64
    k = np.asarray(k).astype(dtype)
    lo = np.asarray(lo).astype(dtype)
    hi = np.asarray(hi).astype(dtype)

    if max_pos > 0:
        # After the pass at distance d, element i's composite covers the
        # visits [i-2d+1, i] clipped to its segment — so i participates in
        # that pass iff pos[i] >= d, a static condition.  Keeping the
        # triples sorted by descending position makes every pass's active
        # set a contiguous prefix: the only random access left is
        # gathering each element's partner at original distance d.
        if dtype is np.int16:
            by_pos = np.argsort((-pos).astype(np.int16), kind="stable")
        else:
            by_pos = np.argsort(-pos)
        rank = np.empty(n, dtype=np.int64)
        rank[by_pos] = indices
        neg_sorted = -pos[by_pos]
        k = k[by_pos]
        lo = lo[by_pos]
        hi = hi[by_pos]

        distance = 1
        while distance <= max_pos:
            count = int(np.searchsorted(neg_sorted, -distance,
                                        side="right"))
            partner = rank[by_pos[:count] - distance]
            # Gathered copies of the earlier composite (1)...
            pk = k[partner]
            plo = lo[partner]
            phi = hi[partner]
            # ...composed in place with views of the later one (2):
            # K = k1+k2, HI = min(hi2, max(lo2, hi1+k2)),
            # LO = max(lo2, lo1+k2).  All reads of the active prefix
            # happen before the writes below, so same-pass partners see
            # the pass's input values, as Hillis-Steele requires.
            ak = k[:count]
            alo = lo[:count]
            ahi = hi[:count]
            phi += ak
            np.maximum(phi, alo, out=phi)
            np.minimum(phi, ahi, out=phi)
            plo += ak
            np.maximum(plo, alo, out=plo)
            pk += ak
            k[:count] = pk
            lo[:count] = plo
            hi[:count] = phi
            distance *= 2

        k = k[rank]
        lo = lo[rank]
        hi = hi[rank]

    if init is None:
        base = dtype(COUNTER_INIT)
        first = dtype(COUNTER_INIT)
    else:
        # Composites were reordered and restored by position above, but
        # the per-visit base survives untouched: it is constant within a
        # segment, and both uses below index in original grouped order.
        base = np.asarray(init).astype(dtype)
        first = base[seg_start]
    state_after = np.minimum(hi, np.maximum(lo, base + k))
    state_before = np.empty(n, dtype=dtype)
    state_before[1:] = state_after[:-1]
    state_before[seg_start] = first
    return state_before, state_after


def _scan_counter_states(slots: np.ndarray, taken: np.ndarray):
    """Resolve every counter state of a (slot, outcome) visit stream.

    Stably groups the visits by slot and runs the segmented clamped-shift
    scan.  Returns ``(order, s_slot, s_taken, state_before, state_after,
    seg_start)`` where the ``s_``-prefixed arrays are in grouped order
    (``original[order]``) and ``state_before[i]`` is the counter value the
    visit predicted from.  ``len(slots)`` must be positive.
    """
    order = _grouping_order(slots)
    s_slot = slots[order]
    s_taken = taken[order]
    n = len(s_slot)

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = s_slot[1:] != s_slot[:-1]

    state_before, state_after = _clamped_scan_states(s_taken, seg_start)
    return order, s_slot, s_taken, state_before, state_after, seg_start


def simulate_counter_stream(slots: np.ndarray, taken: np.ndarray,
                            counters=None) -> Tuple[int, Dict[int, int]]:
    """Replay a (slot, outcome) visit stream over 2-bit counters.

    Computes, for every visit in stream order, the prediction the counter
    at ``slots[i]`` would have made, and returns the total number of
    mispredictions plus the final state of every touched slot.  When
    ``counters`` (a mutable sequence, e.g. a predictor's backing list) is
    given, the final states are written back so the predictor ends up in
    exactly the state the sequential evaluators leave it in.

    All counters start at :data:`COUNTER_INIT`; the result is bit-exact
    with a sequential predict/update loop.
    """
    slots = np.asarray(slots, dtype=np.int64)
    taken = np.asarray(taken, dtype=bool)
    if len(slots) == 0:
        return 0, {}

    (_, s_slot, s_taken, state_before, state_after,
     seg_start) = _scan_counter_states(slots, taken)

    mispredicts = int(np.count_nonzero((state_before >= 2) != s_taken))

    seg_end = np.empty(len(s_slot), dtype=bool)
    seg_end[:-1] = seg_start[1:]
    seg_end[-1] = True
    final_states = {int(slot): int(state)
                    for slot, state in zip(s_slot[seg_end],
                                           state_after[seg_end])}
    if counters is not None:
        for slot, state in final_states.items():
            counters[slot] = state
    return mispredicts, final_states


def _batched_mispredicts(slots: np.ndarray, taken: np.ndarray,
                         n_streams: int) -> np.ndarray:
    """Mispredict counts for ``n_streams`` equal-length concatenated
    visit streams resolved in a single segmented scan.

    ``slots`` is the concatenation of the per-stream slot arrays, each
    offset into its own disjoint slot range; ``taken`` is the matching
    outcome concatenation.  One scan resolves every stream at once (the
    disjoint ranges keep their segments separate), and the wrong
    predictions are binned back to their stream of origin.

    Slots whose visits all share one outcome — the common case for the
    heavily biased branches that dominate real traces — never leave the
    scan's reach of ``COUNTER_INIT``: all-taken runs predict correctly
    from the first visit (init 2 = weakly taken) and all-not-taken runs
    mispredict exactly once.  Those segments are answered in closed form
    and only the mixed ones go through the scan.
    """
    n = len(slots)
    order = _grouping_order(slots)
    s_slot = slots[order]
    s_taken = taken[order]

    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = s_slot[1:] != s_slot[:-1]
    starts = np.nonzero(seg_start)[0]
    seg_len = np.diff(np.append(starts, n))
    seg_sum = np.add.reduceat(s_taken.astype(np.int64), starts)

    uniform_taken = seg_sum == seg_len
    uniform_nt = seg_sum == 0

    wrong = np.zeros(n, dtype=bool)
    # init COUNTER_INIT=2: all-taken -> 2,3,3,... zero mispredicts;
    # all-not-taken -> 2,1,0,... exactly the first visit mispredicts.
    assert COUNTER_INIT == 2, "closed forms assume weakly-taken init"
    wrong[starts[uniform_nt]] = True

    seg_id = np.cumsum(seg_start) - 1
    mixed_visit = ~(uniform_taken | uniform_nt)[seg_id]
    sub = np.nonzero(mixed_visit)[0]
    if len(sub):
        state_before, _ = _clamped_scan_states(s_taken[sub],
                                               seg_start[sub])
        wrong[sub] = (state_before >= 2) != s_taken[sub]

    per_stream = n // n_streams
    return np.bincount(order[wrong] // per_stream, minlength=n_streams)


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


def evaluate_scalar_direction_vectorized(
        trace: Trace, predictor: ScalarPHT) -> DirectionResult:
    """Vectorized, bit-exact equivalent of
    :func:`evaluate_scalar_direction` (the predictor is updated too)."""
    pcs, outcomes = _cond_streams(trace)
    n_cond = len(pcs)
    if n_cond == 0:
        return DirectionResult(n_cond=0, mispredicts=0)
    # GHR before conditional t = first t outcomes shifted in.
    ghr_values = packed_history(outcomes, predictor.history_length)[:-1]
    slots = _scalar_slots(pcs, ghr_values, predictor)
    mispredicts, _ = simulate_counter_stream(slots, outcomes,
                                             predictor._counters)
    return DirectionResult(n_cond=n_cond, mispredicts=mispredicts)


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
    lines = blocks.start // blocks.geometry.block_width
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


def _blocked_slots(blocks: BlockStream, pht: BlockedPHT,
                   pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Vectorized blocked-PHT slot stream over the conditional branches.

    Every conditional belongs to exactly one block (the segmentation's
    record windows partition the trace), its entry base comes from the
    GHR *before* that block, and its counter position from its address.
    """
    line_per_cond, shifts_per_cond = _block_sampling(blocks)
    ghr_values = packed_history(outcomes, pht.history_length)
    return _blocked_slots_from(pht, pcs, ghr_values, line_per_cond,
                               shifts_per_cond)


def evaluate_blocked_direction_vectorized(
        blocks: BlockStream, pht: BlockedPHT) -> DirectionResult:
    """Vectorized, bit-exact equivalent of
    :func:`evaluate_blocked_direction` (the PHT is updated too)."""
    pcs, outcomes = _cond_streams(blocks.trace)
    n_cond = len(pcs)
    if n_cond == 0:
        return DirectionResult(n_cond=0, mispredicts=0)
    slots = _blocked_slots(blocks, pht, pcs, outcomes)
    mispredicts, _ = simulate_counter_stream(slots, outcomes,
                                             pht._counters)
    return DirectionResult(n_cond=n_cond, mispredicts=mispredicts)


def direction_accuracy_sweep(
        trace: Trace, blocks: BlockStream,
        history_lengths: Iterable[int], block_width: int = 8,
) -> Dict[int, Tuple[DirectionResult, DirectionResult]]:
    """Figure 6 kernel: both schemes across history lengths, one trace.

    Returns ``{h: (blocked result, scalar result)}`` for fresh
    ``BlockedPHT(h, block_width)`` / ``ScalarPHT(h, block_width)``
    predictors.  Every (scheme, history length) stream is offset into its
    own disjoint slot range and the whole sweep is resolved in a *single*
    segmented scan, so the per-pass numpy overhead is paid once per trace
    rather than once per configuration.  Bit-exact with running the
    sequential evaluators once per history length.
    """
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
    mispredicts = _batched_mispredicts(all_slots, all_taken, len(streams))

    results: Dict[int, Tuple[DirectionResult, DirectionResult]] = {}
    for i, h in enumerate(hs):
        blocked = DirectionResult(n_cond=n_cond,
                                  mispredicts=int(mispredicts[2 * i]))
        scalar = DirectionResult(n_cond=n_cond,
                                 mispredicts=int(mispredicts[2 * i + 1]))
        results[h] = (blocked, scalar)
    return results
