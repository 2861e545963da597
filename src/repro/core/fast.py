"""Vectorized fetch-engine runs (``REPRO_ENGINE=fast``).

Each ``run_*_fast`` function replays one engine's whole block stream
with the batched kernels of :mod:`repro.core.kernels`.  Every number
charged — and every piece of predictor state left behind (PHT
counters, select tables, target arrays, BTB LRU order, RAS, BIT
table) — is bit-identical to the scalar engines, which
``tests/core/test_engine_parity.py`` locks down.

The scalar loops in ``single.py``/``dual.py``/``multi.py``/
``two_ahead.py`` remain the readable ground truth; the engines
dispatch here based on :func:`repro.core.engine_mode.use_fast_engine`.

Each run has two halves.  ``_prep_*`` runs the counter scan, walk
resolution, divergence and bank-conflict charges and the RAS replay.
``_residual_*`` then replays the select-table and target-array event
streams: tag-less stores (select tables, NLS arrays) through the keyed
last-write replay :func:`~repro.core.kernels.replay_last_write`, and
the set-associative block BTB through the LRU residency kernel
:func:`~repro.core.kernels.lru_resident`.  Python loops remain only
for the RAS and for writing final table state back, one iteration per
stored entry rather than per block.  Under ``REPRO_PROFILE=1`` the two
halves are timed as the ``prep`` and ``residual`` phases, nested inside
the executor's ``engine`` phase.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

import numpy as np

from ..icache.geometry import SELF_ALIGNED
from ..predictors.evaluate import _grouping_order, packed_history
from ..predictors.ghr import BlockOutcomes
from ..runtime import profile
from ..targets.bit import BitCode
from ..targets.btb import BlockBTB, DualBTBTargetArray, _Entry
from ..targets.nls import DualNLSTargetArray
from .engine_common import K_CALL, K_COND, K_INDIRECT, K_JUMP, K_RETURN
from .kernels import (
    CODE_COND_LONG,
    CompiledBlocks,
    WalkArrays,
    compile_fetch_input,
    decode_selector,
    encode_selector,
    lru_resident,
    pair_conflicts,
    replay_last_write,
    resolve_walks,
    scan_counters,
    stale_bit_windows,
)
from .penalties import (
    DOUBLE_SELECT,
    PenaltyKind,
    SINGLE_SELECT,
    penalty_cycles,
    penalty_cycles_slot,
)
from .select_table import DualSelectEntry, SelectEntry
from .selection import SRC_NEAR
from .stats import FetchStats

_GEOMETRY_ERROR = ("fetch input was segmented under a different "
                   "cache geometry")


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------

def _charge_bulk(stats: FetchStats, kind: PenaltyKind, count: int,
                 cycles: int) -> None:
    """Fold ``count`` pre-summed events into the stats dicts.

    Matches ``count`` scalar ``charge`` calls; like them, it never
    creates a key for categories that did not occur.
    """
    if count:
        stats.event_counts[kind] = stats.event_counts.get(kind, 0) + count
        stats.event_cycles[kind] = (stats.event_cycles.get(kind, 0)
                                    + cycles)


class _Run:
    """Per-run bundle: compiled arrays, resolved walks, actuals."""

    def __init__(self, engine, fetch_input, ahead: bool = False) -> None:
        config = engine.config
        geometry = config.geometry
        if geometry != fetch_input.geometry:
            raise ValueError(_GEOMETRY_ERROR)
        self.config = config
        self.geometry = geometry
        self.width = geometry.block_width
        self.line_size = geometry.line_size
        self.pht = engine.pht
        self.compiled: CompiledBlocks = compile_fetch_input(
            fetch_input, config.near_block)
        self.n = self.compiled.n_blocks
        self.trace = fetch_input.trace
        self.ahead = ahead
        self.walk: WalkArrays = None  # set by resolve()
        self.stale_walk = None
        self.stale = None
        self.match = None  # set by finish()

    # -- PHT base indices ------------------------------------------------

    def pht_bases(self) -> np.ndarray:
        """Flat PHT entry base of every block (gshare over block addr).

        With ``ahead`` indexing (two-block-ahead), block ``i`` indexes
        through block ``i-1``'s address and pre-block GHR.
        """
        compiled = self.compiled
        pht = self.pht
        packed = packed_history(compiled.cond_taken,
                                self.config.history_length)
        if self.ahead:
            prev = np.concatenate([np.zeros(1, dtype=np.int64),
                                   np.arange(self.n - 1, dtype=np.int64)])
            self.anchor_start = compiled.start[prev]
        else:
            prev = np.arange(self.n, dtype=np.int64)
            self.anchor_start = compiled.start
        ghr_vals = packed[compiled.conds_before[prev]]
        addr = self.anchor_start // self.width
        entry = (ghr_vals ^ addr) & pht.mask
        return (addr % pht.n_tables * pht.n_entries + entry) * pht.block_width

    # -- counter scan + walks -------------------------------------------

    def resolve(self, bit_table=None) -> None:
        """Resolve every PHT read, walk every block, train, write back.

        With ``bit_table`` (single engine, Figure 7) the stale windows
        are resolved in the same scan and ``self.stale_walk`` is set.
        """
        compiled = self.compiled
        width = self.width
        pht = self.pht
        self.base = self.pht_bases()

        rb, cb = np.nonzero(compiled.window >= CODE_COND_LONG)
        read_blocks = rb
        read_slots = self.base[rb] + (compiled.start[rb] + cb) % width
        n_true = len(rb)
        srb = scb = None
        if bit_table is not None:
            init_lines = np.array(
                [-1 if line is None else line for line in bit_table._lines],
                dtype=np.int64)
            init_codes = np.zeros((bit_table.n_entries, self.line_size),
                                  dtype=np.uint8)
            for i, stored in enumerate(bit_table._codes):
                if stored is not None:
                    init_codes[i] = [int(code) for code in stored]
            self.stale = stale_bit_windows(
                compiled, self.line_size, bit_table.n_entries, width,
                init_lines, init_codes)
            srb, scb = np.nonzero(self.stale.window >= CODE_COND_LONG)
            read_blocks = np.concatenate([rb, srb])
            read_slots = np.concatenate(
                [read_slots,
                 self.base[srb] + (compiled.start[srb] + scb) % width])

        write_slots = self.base[compiled.cond_block] + compiled.cond_pos
        counters = np.asarray(pht._counters, dtype=np.int64)
        preds, final_slots, final_states = scan_counters(
            counters, read_blocks, read_slots, compiled.cond_block,
            write_slots, compiled.cond_taken)

        pred_mat = np.zeros(compiled.window.shape, dtype=bool)
        pred_mat[rb, cb] = preds[:n_true]
        self.walk = resolve_walks(compiled.window, width, pred_mat)
        if bit_table is not None:
            stale_mat = np.zeros(compiled.window.shape, dtype=bool)
            stale_mat[srb, scb] = preds[n_true:]
            self.stale_walk = resolve_walks(self.stale.window, width,
                                            stale_mat)

        store = pht._counters
        for slot, state in zip(final_slots.tolist(), final_states.tolist()):
            store[slot] = state

    # -- divergence classes ---------------------------------------------

    def classify(self):
        """(match, early, late) masks; halt blocks are never charged."""
        p = self.walk.pred_exit
        act = self.compiled.act_exit
        live = ~self.compiled.is_halt
        return p == act, (p < act) & live, (p > act) & live

    def cond_charges(self, early, late, slot_arr, base_arr,
                     slot2_extra, late_extra: bool):
        """COND count/cycles per the engines' shared footnote rules.

        ``slot2_extra`` marks blocks that always pay +1 (second-slot
        re-fetch); first-slot EARLY blocks pay +1 when valid
        instructions remained; ``late_extra`` adds +1 on LATE when
        not-taken targets are untracked.
        """
        charged = early | late
        remaining = (self.compiled.n_instr - 1 - self.walk.pred_exit) > 0
        cycles = base_arr[slot_arr] + slot2_extra.astype(np.int64)
        cycles += (~slot2_extra) & early & remaining
        if late_extra:
            cycles += late
        count = int(np.count_nonzero(charged))
        total = int(cycles[charged].sum()) if count else 0
        return count, total

    # -- RAS replay ------------------------------------------------------

    def replay_ras(self, ras) -> np.ndarray:
        """Drive the engine's RAS through the run's call/return exits.

        Returns each return-exit block's top-of-stack at its analysis
        point (-1 encodes an empty stack, which never matches a target).
        """
        compiled = self.compiled
        is_ret = compiled.has_exit & (compiled.exit_kind == K_RETURN)
        is_call = compiled.has_exit & (compiled.exit_kind == K_CALL)
        self.is_ret = is_ret
        peeks = np.full(self.n, -1, dtype=np.int64)
        exit_pc = compiled.exit_pc.tolist()
        ret_flags = is_ret.tolist()
        for b in np.nonzero(is_ret | is_call)[0].tolist():
            if ret_flags[b]:
                top = ras.peek(0)
                if top is not None:
                    peeks[b] = top
                ras.pop()
            else:
                ras.push(exit_pc[b] + 1)
        return peeks

    # -- residual inputs -------------------------------------------------

    def finish(self, match: np.ndarray) -> None:
        """Record the residual inputs: target events and misfetch kinds.

        Every non-return taken exit whose target the near-block adder
        did not supply trains the target array (``self.todo``, in block
        order); the ones whose direction matched and whose target came
        from the array also look it up first (``self.lookup``).  A
        lookup therefore always precedes an update of the same entry.
        """
        compiled = self.compiled
        walk = self.walk
        near_ok = (walk.src == SRC_NEAR) \
            & (walk.pred_exit == compiled.act_exit)
        self.match = match
        self.todo = np.nonzero(compiled.has_exit & ~self.is_ret
                               & ~near_ok)[0]
        self.lookup = match[self.todo] & (walk.src[self.todo] != SRC_NEAR)
        self.mf = self.misfetch_kinds()[self.todo]

    def misfetch_kinds(self) -> np.ndarray:
        """1 = immediate, 2 = indirect, 0 = none (returns excluded)."""
        compiled = self.compiled
        kind = compiled.exit_kind
        mf = np.zeros(self.n, dtype=np.uint8)
        mf[compiled.has_exit & (kind == K_COND)] = 1
        jump_call = compiled.has_exit & ((kind == K_JUMP)
                                         | (kind == K_CALL))
        mf[jump_call & (compiled.exit_direct >= 0)] = 1
        mf[jump_call & (compiled.exit_direct < 0)] = 2
        mf[compiled.has_exit & (kind == K_INDIRECT)] = 2
        return mf

    def charge_targets(self, stats: FetchStats, targets, which,
                       anchor_line, imm_cycles, ind_cycles) -> None:
        """Replay the target array over ``self.todo`` and charge misfetches.

        ``which`` is each event's 0-based target number (array half or
        fetch slot), ``anchor_line`` the line that indexes it; the
        per-``which`` Table 3 cycles come from ``imm_cycles`` /
        ``ind_cycles``.
        """
        todo = self.todo
        if todo.shape[0] == 0:
            return
        exit_pc = self.compiled.exit_pc[todo]
        values = self.compiled.exit_target[todo]
        observed = _replay_targets(targets, which, anchor_line,
                                   exit_pc % self.line_size, values)
        wrong = self.lookup & (observed != values)
        for kind, penalty, cycles in (
                (1, PenaltyKind.MISFETCH_IMMEDIATE, imm_cycles),
                (2, PenaltyKind.MISFETCH_INDIRECT, ind_cycles)):
            hit = wrong & (self.mf == kind)
            _charge_bulk(stats, penalty, int(np.count_nonzero(hit)),
                         int(np.asarray(cycles, dtype=np.int64)[
                             which[hit]].sum()))


def _empty_stats(engine_input_trace, n_blocks: int,
                 base_cycles: int) -> FetchStats:
    return FetchStats(
        n_blocks=n_blocks,
        n_instructions=engine_input_trace.n_instructions,
        n_branches=engine_input_trace.n_branches,
        n_cond=engine_input_trace.n_cond,
        base_cycles=base_cycles,
    )


def _line_codes_tuple(compiled: CompiledBlocks, line: int,
                      line_size: int):
    """True BIT codes of one full line (BIT-table write-back)."""
    coa = compiled.code_of_addr
    n_static = len(coa)
    base = line * line_size
    return tuple(
        BitCode(int(coa[addr])) if addr < n_static else BitCode.NONBRANCH
        for addr in range(base, base + line_size))


# ----------------------------------------------------------------------
# Target-array replay
# ----------------------------------------------------------------------

def _replay_targets(targets, which, lines, positions, values):
    """Observed targets (-1 = none) of one run's update-event stream.

    Event ``i`` looks up ``(which[i], lines[i], positions[i])`` and then
    stores ``values[i]`` there; the array's final state is written back.
    """
    if isinstance(targets, DualBTBTargetArray):
        return _replay_btb(targets._btb, which, lines, positions, values)
    if isinstance(targets, BlockBTB):
        return _replay_btb(targets, which, lines, positions, values)
    if isinstance(targets, DualNLSTargetArray):
        arrays = [targets.first, targets.second]
    else:  # NLSTargetArray, or the multi engine's per-slot arrays
        arrays = getattr(targets, "_arrays", [targets])
    return _replay_nls(arrays, which, lines, positions, values)


def _replay_nls(arrays, which, lines, positions, values):
    """Tag-less arrays: a keyed last-write replay over their slots."""
    nbe = arrays[0].n_block_entries
    size = nbe * arrays[0].line_size
    keys = which * size + (lines % nbe) * arrays[0].line_size + positions
    init = np.concatenate([_seed_targets(arr._targets) for arr in arrays])
    observed, fin_k, fin_v = replay_last_write(
        keys, values, np.ones(keys.shape[0], dtype=bool), init)
    for k, v in zip(fin_k.tolist(), fin_v.tolist()):
        arrays[k // size]._targets[k % size] = v
    return observed


def _seed_targets(store: List) -> np.ndarray:
    """Encoded NLS target store; -1 marks cold slots (targets are >= 0)."""
    if store.count(None) == len(store):  # fresh array: skip the slot loop
        return np.full(len(store), -1, dtype=np.int64)
    return np.asarray([-1 if t is None else t for t in store],
                      dtype=np.int64)


def _replay_btb(btb: BlockBTB, which, lines, positions, values):
    """Set-associative LRU block BTB over one run's update events.

    Every event touches its entry (a hit refreshes it, a miss allocates
    a fresh one), so the LRU stream is the event stream, prefixed by
    the warm contents as leading touches.  Each allocation starts a new
    residency *instance*; targets replay keyed by (instance, position),
    and a lookup that misses the BTB observes no target.
    """
    n_sets = btb.n_sets
    line_size = btb.line_size
    # Touch keys encode (line, target number) as 2 * line + which.
    seed_keys: List[int] = []
    seed_touch: List[int] = []
    seed_pos: List[int] = []
    seed_vals: List[int] = []
    for index, bucket in enumerate(btb._sets):
        for (high, tag_which), entry in bucket.items():
            line = high * n_sets + index
            for pos, target in enumerate(entry.targets):
                if target is not None:
                    seed_touch.append(len(seed_keys))
                    seed_pos.append(pos)
                    seed_vals.append(target)
            seed_keys.append(2 * line + ((tag_which - 1) if btb.dual else 0))
    n_seed = len(seed_keys)
    event_keys = 2 * lines + (which if btb.dual else 0)
    keys = np.concatenate([np.asarray(seed_keys, dtype=np.int64),
                           event_keys])
    groups = keys // 2 % n_sets
    resident = lru_resident(groups, keys, btb.associativity)

    # Residency instance of every touch: the rank of the allocating
    # (missing) touch at or before it.  A key's first touch always
    # misses, so the forward fill never crosses into another key.
    miss = ~resident
    m = keys.shape[0]
    rank = np.cumsum(miss) - 1
    by_key = _grouping_order(keys)
    fill = np.maximum.accumulate(
        np.where(miss[by_key], np.arange(m, dtype=np.int64), 0))
    instance = np.empty(m, dtype=np.int64)
    instance[by_key] = rank[by_key][fill]

    slot_keys = np.concatenate([
        instance[np.asarray(seed_touch, dtype=np.int64)] * line_size
        + np.asarray(seed_pos, dtype=np.int64),
        instance[n_seed:] * line_size + positions])
    slot_vals = np.concatenate([np.asarray(seed_vals, dtype=np.int64),
                                values])
    n_instances = int(rank[-1]) + 1
    observed, fin_k, fin_v = replay_last_write(
        slot_keys, slot_vals, np.ones(slot_keys.shape[0], dtype=bool),
        np.full(n_instances * line_size, -1, dtype=np.int64))
    observed = np.where(resident[n_seed:], observed[len(seed_vals):], -1)

    # Final contents: per set, the ``associativity`` most recently
    # touched keys, least recently used first.
    key_s = keys[by_key]
    last = np.ones(m, dtype=bool)
    last[:-1] = key_s[1:] != key_s[:-1]
    last_touch = np.sort(by_key[last])
    in_set = last_touch[_grouping_order(groups[last_touch])]
    set_s = groups[in_set]
    pos = np.arange(in_set.shape[0], dtype=np.int64)
    set_end = np.ones(in_set.shape[0], dtype=bool)
    set_end[:-1] = set_s[1:] != set_s[:-1]
    end_pos = np.minimum.accumulate(
        np.where(set_end, pos, in_set.shape[0])[::-1])[::-1]
    kept = in_set[end_pos - pos < btb.associativity]
    kept_inst = instance[kept]
    stored = np.isin(fin_k // line_size, kept_inst)
    entries = {inst: _Entry(line_size) for inst in kept_inst.tolist()}
    for k, v in zip(fin_k[stored].tolist(), fin_v[stored].tolist()):
        entries[k // line_size].targets[k % line_size] = v
    for bucket in btb._sets:
        bucket.clear()
    for key, inst in zip(keys[kept].tolist(), kept_inst.tolist()):
        line = key // 2
        tag = (line // n_sets, (key % 2 + 1) if btb.dual else 0)
        btb._sets[line % n_sets][tag] = entries[inst]
    return observed


# ----------------------------------------------------------------------
# Single-block engine
# ----------------------------------------------------------------------

def run_single_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`SingleBlockEngine.run` (no recovery tracking)."""
    with profile.phase("prep"):
        run, stats = _prep_single(engine, fetch_input)
    if run.n == 0:
        return stats
    with profile.phase("residual"):
        return _residual_single(engine, run, stats)


def _prep_single(engine, fetch_input) -> tuple:
    """Front half of the single-block run.

    Runs every vectorized phase (counter scan, BIT handling, COND and
    RETURN charges, RAS replay) and all engine-state mutation *except*
    the target array, then returns ``(run, stats)`` with the residual
    inputs recorded by :meth:`_Run.finish` (``run.match`` stays
    ``None`` when ``run.n == 0``).
    """
    run = _Run(engine, fetch_input)
    compiled = run.compiled
    n = run.n
    stats = _empty_stats(run.trace, n, base_cycles=n)
    if n == 0:
        return run, stats
    scheme = SINGLE_SELECT
    run.resolve(bit_table=engine.bit_table)
    walk = run.walk

    # Separate BIT table: stale-walk mismatches, counters and state.
    if engine.bit_table is not None:
        mismatch = (run.stale_walk.sel != walk.sel) \
            | (run.stale_walk.pay != walk.pay)
        count = int(np.count_nonzero(mismatch))
        _charge_bulk(stats, PenaltyKind.BIT, count,
                     count * penalty_cycles(scheme, 1, PenaltyKind.BIT))
        bit = engine.bit_table
        bit.accesses += run.stale.accesses
        bit.stale_hits += run.stale.stale_hits
        for slot, line in zip(run.stale.final_slots.tolist(),
                              run.stale.final_lines.tolist()):
            bit._lines[slot] = line
            bit._codes[slot] = _line_codes_tuple(compiled, line,
                                                 run.line_size)

    match, early, late = run.classify()
    slot_arr = np.zeros(n, dtype=np.int64)
    base_arr = np.array([penalty_cycles(scheme, 1, PenaltyKind.COND)],
                        dtype=np.int64)
    count, cycles = run.cond_charges(
        early, late, slot_arr, base_arr,
        slot2_extra=np.zeros(n, dtype=bool),
        late_extra=not run.config.track_not_taken_targets)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(engine.ras)
    ret_bad = match & run.is_ret & (peeks != compiled.exit_target)
    count = int(np.count_nonzero(ret_bad))
    _charge_bulk(stats, PenaltyKind.RETURN, count,
                 count * penalty_cycles(scheme, 1, PenaltyKind.RETURN))

    run.finish(match)
    return run, stats


def _residual_single(engine, run, stats) -> FetchStats:
    """The exit-line-indexed NLS array or block BTB."""
    scheme = SINGLE_SELECT
    exit_line = run.compiled.exit_pc[run.todo] // run.line_size
    run.charge_targets(
        stats, engine.targets, np.zeros(run.todo.shape[0], dtype=np.int64),
        exit_line,
        [penalty_cycles(scheme, 1, PenaltyKind.MISFETCH_IMMEDIATE)],
        [penalty_cycles(scheme, 1, PenaltyKind.MISFETCH_INDIRECT)])
    return stats


# ----------------------------------------------------------------------
# Select-table encoding shared by the dual/multi fast paths
# ----------------------------------------------------------------------

def _encode_select_entry(width: int, entry: SelectEntry):
    sel = encode_selector(width, *entry.selector)
    pay = entry.outcomes.n_not_taken * 2 + int(entry.outcomes.ends_taken)
    return sel, pay


@lru_cache(maxsize=None)
def _decode_select_entry(width: int, sel: int, pay: int) -> SelectEntry:
    """Selector decode; entries are never mutated, so instances are shared."""
    return SelectEntry(decode_selector(width, sel),
                       BlockOutcomes(pay // 2, bool(pay % 2)))


def _payload_base(width: int) -> int:
    """Packing radix: ``sel * base + pay`` is one comparable integer."""
    return 2 * width + 4


def _seed_select(width: int, entries, half: str = "") -> np.ndarray:
    """Select entries packed as ``sel * base + pay``.

    ``half`` names the :class:`DualSelectEntry` half to pack.  Cold
    entries encode to 0 — exactly the fall-through default a cold read
    returns — so reads need no presence check.
    """
    packed = np.zeros(len(entries), dtype=np.int64)
    if entries.count(None) == len(entries):
        return packed
    base = _payload_base(width)
    for i, entry in enumerate(entries):
        if entry is not None:
            sel, pay = _encode_select_entry(
                width, getattr(entry, half) if half else entry)
            packed[i] = sel * base + pay
    return packed


def _select_key(run: _Run, select) -> np.ndarray:
    """Select-table slot of every block (anchor-indexed reads/writes)."""
    table = (run.anchor_start % run.line_size) % select.n_tables
    return table * select.n_entries + (run.base & (select.n_entries - 1))


def _replay_select(run: _Run, stats: FetchStats, seeds, tables, blocks,
                   keys, writes, misselect, ghr) -> List:
    """Verify and train select tables over one event stream.

    ``seeds`` holds each table's packed entries (:func:`_seed_select`).
    Event ``i`` reads table ``tables[i]`` at slot ``keys[i]`` for block
    ``blocks[i]`` and, when ``writes[i]``, stores that block's walk.  A
    stored selector that disagrees with the walk charges
    ``misselect[i]`` cycles; an agreeing selector with a different
    payload charges ``ghr[i]``.  Returns the decoded final entry of
    every written slot as ``(table, slot, entry)``.
    """
    walk = run.walk
    width = run.width
    base = _payload_base(width)
    packed = walk.sel * base + walk.pay
    size = seeds[0].shape[0]
    observed, fin_k, fin_v = replay_last_write(
        tables * size + keys, packed[blocks], writes, np.concatenate(seeds))
    mis = (observed // base) != walk.sel[blocks]
    bad_pay = ~mis & (observed != packed[blocks])
    for kind, hit, cycles in ((PenaltyKind.MISSELECT, mis, misselect),
                              (PenaltyKind.GHR, bad_pay, ghr)):
        _charge_bulk(stats, kind, int(np.count_nonzero(hit)),
                     int(cycles[hit].sum()))
    return [(k // size, k % size,
             _decode_select_entry(width, v // base, v % base))
            for k, v in zip(fin_k.tolist(), fin_v.tolist())]


# ----------------------------------------------------------------------
# Dual-block engine
# ----------------------------------------------------------------------

def run_dual_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`DualBlockEngine.run` (no timeline recording)."""
    with profile.phase("prep"):
        run, stats = _prep_dual(engine, fetch_input)
    if run.n == 0:
        return stats
    with profile.phase("residual"):
        return _residual_dual(engine, run, stats)


def _prep_dual(engine, fetch_input) -> tuple:
    """Front half of the dual-block run.

    Everything up to (and including) the bank-conflict charges; the
    residual replays the select table and the dual target array.
    """
    run = _Run(engine, fetch_input)
    compiled = run.compiled
    n = run.n
    stats = _empty_stats(run.trace, n, base_cycles=1 + (n - 1 + 1) // 2)
    if n == 0:
        return run, stats
    scheme = DOUBLE_SELECT if engine.double else SINGLE_SELECT
    run.resolve()

    match, early, late = run.classify()
    slot_arr = ((np.arange(n, dtype=np.int64) % 2) == 1) \
        .astype(np.int64)  # 0=slot1, 1=slot2
    base_arr = np.array(
        [penalty_cycles(scheme, 1, PenaltyKind.COND),
         penalty_cycles(scheme, 2, PenaltyKind.COND)], dtype=np.int64)
    count, cycles = run.cond_charges(
        early, late, slot_arr, base_arr, slot2_extra=slot_arr.astype(bool),
        late_extra=not run.config.track_not_taken_targets)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(engine.ras)
    ret_bad = match & run.is_ret & (peeks != compiled.exit_target)
    for slot in (1, 2):
        in_slot = ret_bad & (slot_arr == slot - 1)
        count = int(np.count_nonzero(in_slot))
        _charge_bulk(stats, PenaltyKind.RETURN, count,
                     count * penalty_cycles(scheme, slot,
                                            PenaltyKind.RETURN))

    # Bank conflicts: pairs (i+1, i+2) for every completed (i, i+1).
    conflicts = pair_conflicts(compiled, run.geometry)
    odd = np.arange(1, n - 1, 2, dtype=np.int64)
    count = int(np.count_nonzero(conflicts[odd]))
    _charge_bulk(stats, PenaltyKind.BANK_CONFLICT, count,
                 count * penalty_cycles(scheme, 2,
                                        PenaltyKind.BANK_CONFLICT))

    run.finish(match)
    return run, stats


def _residual_dual(engine, run, stats) -> FetchStats:
    """Select table (one or both halves) + dual target array.

    Pair ``(e, e + 1)`` is indexed by block ``e``'s slot.  Under double
    selection the first half verifies block ``e`` on every pair; both
    halves are trained only by complete pairs.
    """
    n = run.n
    width = run.width
    scheme = DOUBLE_SELECT if engine.double else SINGLE_SELECT
    select = engine.select
    st_key = _select_key(run, select)
    even = np.arange(0, n, 2, dtype=np.int64)
    paired = even + 1 < n
    eo = even[paired]
    entries = select._entries
    ms2 = penalty_cycles(scheme, 2, PenaltyKind.MISSELECT)
    g2 = penalty_cycles(scheme, 2, PenaltyKind.GHR)
    n_pairs = eo.shape[0]
    if engine.double:
        seeds = [_seed_select(width, entries, "first"),
                 _seed_select(width, entries, "second")]
        n_even = even.shape[0]
        tables = np.repeat(np.array([0, 1], dtype=np.int64),
                           [n_even, n_pairs])
        written = _replay_select(
            run, stats, seeds, tables,
            np.concatenate([even, eo + 1]),
            np.concatenate([st_key[even], st_key[eo]]),
            np.concatenate([paired, np.ones(n_pairs, dtype=bool)]),
            np.repeat(np.array(
                [penalty_cycles(scheme, 1, PenaltyKind.MISSELECT), ms2],
                dtype=np.int64), [n_even, n_pairs]),
            np.repeat(np.array(
                [penalty_cycles(scheme, 1, PenaltyKind.GHR), g2],
                dtype=np.int64), [n_even, n_pairs]))
        # Both halves of a slot are written by the same complete pairs.
        halves = {(t, slot): entry for t, slot, entry in written}
        for t, slot, entry in written:
            if t == 0:
                entries[slot] = DualSelectEntry(entry, halves[(1, slot)])
    else:
        written = _replay_select(
            run, stats, [_seed_select(width, entries)],
            np.zeros(n_pairs, dtype=np.int64), eo + 1, st_key[eo],
            np.ones(n_pairs, dtype=bool),
            np.full(n_pairs, ms2, dtype=np.int64),
            np.full(n_pairs, g2, dtype=np.int64))
        for _, slot, entry in written:
            entries[slot] = entry

    todo = run.todo
    which = todo % 2
    run.charge_targets(
        stats, engine.targets, which, run.compiled.line0[todo - which],
        [penalty_cycles(scheme, s, PenaltyKind.MISFETCH_IMMEDIATE)
         for s in (1, 2)],
        [penalty_cycles(scheme, s, PenaltyKind.MISFETCH_INDIRECT)
         for s in (1, 2)])
    return stats


# ----------------------------------------------------------------------
# Multi-block engine
# ----------------------------------------------------------------------

def run_multi_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`MultiBlockEngine.run`."""
    with profile.phase("prep"):
        run, stats = _prep_multi(engine, fetch_input)
    if run.n == 0:
        return stats
    with profile.phase("residual"):
        return _residual_multi(engine, run, stats)


def _bank_conflicts(line0: np.ndarray, group: int, n_banks: int,
                    self_aligned: bool) -> np.ndarray:
    """Conflict mask ``[n_groups, group]`` of the multi engine's claims.

    Group ``a`` fetches blocks ``a*group + 1 ..`` together; each claims
    its lines in order, skipping lines already claimed, and a line whose
    bank another claimed line holds is a conflict (and stays
    unclaimed).  The ``<= 2 * group`` (block, line) positions are
    walked in order, vectorized across groups.
    """
    n = line0.shape[0]
    n_groups = (n + group - 1) // group
    first = np.arange(n_groups, dtype=np.int64) * group + 1
    offsets = (0, 1) if self_aligned else (0,)
    claimed_lines: List[np.ndarray] = []
    claimed_banks: List[np.ndarray] = []
    conflict = np.zeros((n_groups, group), dtype=bool)
    for k in range(group):
        block = first + k
        valid = block < n
        start = np.where(valid, line0[np.minimum(block, n - 1)], -1)
        for offset in offsets:
            line = np.where(valid, start + offset, -1)
            bank = np.where(valid, line % n_banks, -1)
            seen = np.zeros(n_groups, dtype=bool)
            taken = np.zeros(n_groups, dtype=bool)
            for prior_line, prior_bank in zip(claimed_lines,
                                              claimed_banks):
                seen |= prior_line == line
                taken |= prior_bank == bank
            clash = valid & ~seen & taken
            conflict[:, k] |= clash
            claim = valid & ~seen & ~taken
            claimed_lines.append(np.where(claim, line, -1))
            claimed_banks.append(np.where(claim, bank, -2))
    return conflict


def _prep_multi(engine, fetch_input) -> tuple:
    """Front half of the N-block run.

    Includes the bank claim-set charges (pure geometry, no predictor
    state); the residual replays the select tables and target arrays.
    """
    run = _Run(engine, fetch_input)
    compiled = run.compiled
    n = run.n
    group = engine.n
    stats = _empty_stats(
        run.trace, n,
        base_cycles=1 + (n - 2 + group) // group if n > 1 else 1)
    if n == 0:
        return run, stats
    scheme = DOUBLE_SELECT if engine.double else SINGLE_SELECT
    run.resolve()

    match, early, late = run.classify()
    slot_arr = np.arange(n, dtype=np.int64) % group  # slot - 1
    max_slot = group
    base_arr = np.array(
        [penalty_cycles_slot(scheme, s, PenaltyKind.COND)
         for s in range(1, max_slot + 1)], dtype=np.int64)
    count, cycles = run.cond_charges(
        early, late, slot_arr, base_arr, slot2_extra=slot_arr >= 1,
        late_extra=not run.config.track_not_taken_targets)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(engine.ras)
    ret_bad = match & run.is_ret & (peeks != compiled.exit_target)
    for slot in range(1, max_slot + 1):
        in_slot = ret_bad & (slot_arr == slot - 1)
        count = int(np.count_nonzero(in_slot))
        _charge_bulk(stats, PenaltyKind.RETURN, count,
                     count * penalty_cycles_slot(scheme, slot,
                                                 PenaltyKind.RETURN))

    # Bank claim sets over each group fetched together (a+1..a+n); only
    # the second and later members pay.
    conflict = _bank_conflicts(compiled.line0, group, run.geometry.n_banks,
                               run.geometry.kind == SELF_ALIGNED)
    bank = np.array([penalty_cycles_slot(scheme, s,
                                         PenaltyKind.BANK_CONFLICT)
                     for s in range(1, group + 1)], dtype=np.int64)
    conflict[:, 0] = False
    count = int(np.count_nonzero(conflict))
    _charge_bulk(stats, PenaltyKind.BANK_CONFLICT, count,
                 int((conflict * bank).sum()))

    run.finish(match)
    return run, stats


def _residual_multi(engine, run, stats) -> FetchStats:
    """Select tables + per-slot target arrays, indexed by the anchor.

    Group ``a`` verifies and trains block ``a + k`` against select
    table ``k`` (double selection: the anchor itself uses table 0;
    single: table ``k - 1`` serves slot ``k + 1``).
    """
    n = run.n
    group = engine.n
    scheme = DOUBLE_SELECT if engine.double else SINGLE_SELECT
    if engine.selects:
        idx = np.arange(n, dtype=np.int64)
        st_key = _select_key(run, engine.selects[0])[idx - idx % group]
        blocks = [np.arange(t if engine.double else t + 1, n, group,
                            dtype=np.int64)
                  for t in range(len(engine.selects))]
        counts = [b.shape[0] for b in blocks]
        slots = [t + 1 if engine.double else t + 2
                 for t in range(len(engine.selects))]
        events = np.concatenate(blocks)
        written = _replay_select(
            run, stats,
            [_seed_select(run.width, t._entries) for t in engine.selects],
            np.repeat(np.arange(len(blocks), dtype=np.int64), counts),
            events, st_key[events], np.ones(events.shape[0], dtype=bool),
            np.repeat(np.array([penalty_cycles_slot(
                scheme, s, PenaltyKind.MISSELECT) for s in slots],
                dtype=np.int64), counts),
            np.repeat(np.array([penalty_cycles_slot(
                scheme, s, PenaltyKind.GHR) for s in slots],
                dtype=np.int64), counts))
        for t, slot, entry in written:
            engine.selects[t]._entries[slot] = entry

    todo = run.todo
    which = todo % group
    run.charge_targets(
        stats, engine.targets, which, run.compiled.line0[todo - which],
        [penalty_cycles_slot(scheme, s, PenaltyKind.MISFETCH_IMMEDIATE)
         for s in range(1, group + 1)],
        [penalty_cycles_slot(scheme, s, PenaltyKind.MISFETCH_INDIRECT)
         for s in range(1, group + 1)])
    return stats


# ----------------------------------------------------------------------
# Two-block-ahead engine
# ----------------------------------------------------------------------

def run_two_ahead_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`TwoBlockAheadEngine.run`."""
    with profile.phase("prep"):
        run, stats = _prep_two_ahead(engine, fetch_input)
    if run.n == 0:
        return stats
    with profile.phase("residual"):
        return _residual_two_ahead(engine, run, stats)


def _prep_two_ahead(engine, fetch_input) -> tuple:
    """Front half of the two-block-ahead run."""
    run = _Run(engine, fetch_input, ahead=True)
    compiled = run.compiled
    n = run.n
    stats = _empty_stats(run.trace, n, base_cycles=1 + n // 2)
    if n == 0:
        return run, stats
    scheme = SINGLE_SELECT
    run.resolve()

    match, early, late = run.classify()
    # Pairs are (odd, even): odd indices are slot 1, even are slot 2.
    index = np.arange(n, dtype=np.int64)
    slot_arr = (index % 2 == 0).astype(np.int64)  # 0=slot1, 1=slot2
    base_arr = np.array(
        [penalty_cycles(scheme, 1, PenaltyKind.COND),
         penalty_cycles(scheme, 2, PenaltyKind.COND)], dtype=np.int64)
    count, cycles = run.cond_charges(
        early, late, slot_arr, base_arr, slot2_extra=slot_arr.astype(bool),
        late_extra=False)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(engine.ras)
    ret_bad = match & run.is_ret & (peeks != compiled.exit_target)
    for slot in (1, 2):
        in_slot = ret_bad & (slot_arr == slot - 1)
        count = int(np.count_nonzero(in_slot))
        _charge_bulk(stats, PenaltyKind.RETURN, count,
                     count * penalty_cycles(scheme, slot,
                                            PenaltyKind.RETURN))

    if engine.serialization_penalty:
        count = int(np.count_nonzero((index % 2 == 0) & (index >= 2)))
        _charge_bulk(stats, PenaltyKind.MISSELECT, count,
                     count * engine.serialization_penalty)

    conflicts = pair_conflicts(compiled, run.geometry)
    odd = np.arange(1, n - 1, 2, dtype=np.int64)
    count = int(np.count_nonzero(conflicts[odd]))
    _charge_bulk(stats, PenaltyKind.BANK_CONFLICT, count,
                 count * penalty_cycles(scheme, 2,
                                        PenaltyKind.BANK_CONFLICT))

    run.finish(match)
    return run, stats


def _residual_two_ahead(engine, run, stats) -> FetchStats:
    """Dual NLS array indexed by each block's ahead (anchor) line."""
    scheme = SINGLE_SELECT
    todo = run.todo
    run.charge_targets(
        stats, engine.targets, 1 - todo % 2,
        run.anchor_start[todo] // run.line_size,
        [penalty_cycles(scheme, s, PenaltyKind.MISFETCH_IMMEDIATE)
         for s in (1, 2)],
        [penalty_cycles(scheme, s, PenaltyKind.MISFETCH_INDIRECT)
         for s in (1, 2)])
    return stats
