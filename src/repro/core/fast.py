"""Vectorized fetch-engine runs (``REPRO_ENGINE=fast``).

One driver, :func:`_run_fast`, replays any engine's whole block stream
with the batched kernels of :mod:`repro.core.kernels`.  Every number
charged — and every piece of predictor state left behind (PHT
counters, select tables, target arrays, BTB LRU order, RAS, BIT
table) — is bit-identical to the scalar engines, which
``tests/core/test_engine_parity.py`` locks down.

The scalar loops in ``single.py``/``multi.py``/``two_ahead.py``
remain the readable ground truth; the engines dispatch here based on
:func:`repro.core.engine_mode.use_fast_engine`.
As in the paper's Section 5, the mechanisms are one machine with
different fetch schedules ("another block prediction basically
requires another select table and target array"), so each
``run_*_fast`` entry point only declares its engine's schedule:

=========  =====  =====  =====  ============  ==========================
engine     N      shift  ahead  target line   select tables
=========  =====  =====  =====  ============  ==========================
single     1      0      no     exit line     none (separate BIT table)
multi      ``n``  0      no     group anchor  one per predicted slot;
                                              only complete groups train
two-ahead  2      1      yes    ahead anchor  none (serialization)
=========  =====  =====  =====  ============  ==========================

The dual engine is ``multi`` at N = 2.  Block ``i`` fills slot
``(i + shift) % N`` and is charged that slot's Table 3 column
(:func:`~repro.core.penalties.penalty_cycles_slot`).  With ``ahead``
indexing, block ``i`` indexes the PHT and its target array through
block ``i - 1``.

Each run has two halves.  :func:`_prep` runs the counter scan and the
walks over the view's BIT read list (:meth:`_Run.resolve`: a read of
one of the block's own executed conditionals takes the counter state
that conditional's training write found, only the rest search the
write stream), then the divergence and bank-conflict charges and the
RAS replay.  The residual half (:func:`_replay_selects`,
:func:`_residual_targets`) then replays the select-table and
target-array event streams: tag-less stores (select tables, NLS
arrays) through the keyed last-write replay
:func:`~repro.core.kernels.replay_last_write`, and the set-associative
block BTB through the LRU residency kernel
:func:`~repro.core.kernels.lru_resident`.  Python loops remain only
for the RAS and for writing final table state back, one iteration per
stored entry rather than per block.  Under ``REPRO_PROFILE=1`` the two
halves are timed as the ``prep`` and ``residual`` phases, nested inside
the executor's ``engine`` phase.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence

import numpy as np

from ..predictors.ghr import BlockOutcomes
from ..runtime import heap, profile
from ..targets.bit import BitCode
from ..targets.btb import BlockBTB, DualBTBTargetArray, _Entry
from ..targets.nls import NLSTargetArray
from .engine_common import K_CALL, K_COND, K_INDIRECT, K_JUMP, K_RETURN
from .kernels import (
    CompiledBlocks,
    WalkArrays,
    _grouping_order,
    bank_conflicts,
    compile_fetch_input,
    decode_selector,
    encode_selector,
    lru_resident,
    packed_history,
    replay_last_write,
    scan_counters,
    stale_bit_windows,
    walk_reads,
)
from .penalties import (
    DOUBLE_SELECT,
    PenaltyKind,
    SINGLE_SELECT,
    penalty_cycles,
    penalty_cycles_slot,
)
from .select_table import SelectEntry
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

    def __init__(self, engine, fetch_input, group: int, shift: int,
                 ahead: bool) -> None:
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
        self.group = group
        self.shift = shift
        self.ahead = ahead
        self.walk: WalkArrays = None  # set by resolve()
        self.stale_walk = None
        self.stale = None
        self.match = None  # set by finish()

    def slot_of(self, blocks: np.ndarray) -> np.ndarray:
        """0-based fetch slot of ``blocks``: ``(i + shift) % group``."""
        return (blocks + self.shift) % self.group

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
        # Anchor addresses feed packed PHT, select and target keys: the
        # int32 stream array is widened once here.
        start = compiled.start.astype(np.int64)
        if self.ahead:
            prev = np.concatenate([np.zeros(1, dtype=np.int64),
                                   np.arange(self.n - 1, dtype=np.int64)])
            self.anchor_start = start[prev]
        else:
            prev = np.arange(self.n, dtype=np.int64)
            self.anchor_start = start
        ghr_vals = packed[compiled.conds_before[prev]]
        addr = self.anchor_start // self.width
        entry = (ghr_vals ^ addr) & pht.mask
        return (addr % pht.n_tables * pht.n_entries + entry) * pht.block_width

    # -- counter scan + walks -------------------------------------------

    def resolve(self, bit_table=None) -> None:
        """Resolve every PHT read, walk every block, train, write back.

        A block executes its listed conditionals in column order, so a
        read ranked below the block's conditional count is one of its
        own executed conditionals (inside its instructions): its slot is
        the one that conditional's training write updates next, so it
        observes the state the write found.  The rest — reads past the
        block's actual exit (a truncated trace's synthesised HALT may
        sit on a conditional inside the block) and the BIT table's stale
        reads — search the write stream.  The read→write map and each
        read's counter offset are memoised on the fetch input's shared
        read rows (:meth:`~repro.core.kernels.ReadRows.slots`).

        With ``bit_table`` (single engine, Figure 7) the stale reads
        (:func:`~repro.core.kernels.stale_bit_windows`: one
        ``read_rows`` call over the line each read finds in its slot)
        are resolved in the same scan and ``self.stale_walk`` is set.
        """
        compiled = self.compiled
        width = self.width
        pht = self.pht
        self.base = self.pht_bases()

        reads = compiled.reads
        rb = reads.block
        read_write, offset = compiled.rows.slots(
            compiled.start, compiled.conds_before, compiled.n_conds)
        read_blocks = rb
        read_slots = self.base[rb] + offset
        n_true = len(rb)
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
            srb = self.stale.reads.block
            read_blocks = np.concatenate([rb, srb])
            read_slots = np.concatenate(
                [read_slots, self.base[srb]
                 + (compiled.start[srb] + self.stale.reads.col) % width])
            read_write = np.concatenate(
                [read_write, np.full(len(srb), -1, dtype=np.int64)])

        write_slots = self.base[compiled.cond_block] + compiled.cond_pos
        counters = np.asarray(pht._counters, dtype=np.int64)
        preds, final_slots, final_states = scan_counters(
            counters, read_blocks, read_slots, compiled.cond_block,
            write_slots, compiled.cond_taken, read_write)

        self.walk = walk_reads(reads, width, preds[:n_true])
        if bit_table is not None:
            self.stale_walk = walk_reads(self.stale.reads, width,
                                         preds[n_true:])

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

    def cond_charges(self, early, late, slot, cycles_by_slot,
                     late_extra: bool):
        """COND count/cycles per the engines' shared footnote rules.

        Second and later slots always pay +1 (re-fetch); first-slot
        EARLY blocks pay +1 when valid instructions remained;
        ``late_extra`` adds +1 on LATE when not-taken targets are
        untracked.
        """
        charged = early | late
        remaining = (self.compiled.n_instr - 1 - self.walk.pred_exit) > 0
        later = slot >= 1
        cycles = cycles_by_slot[slot] + later.astype(np.int64)
        cycles += ~later & early & remaining
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
        # Only the call/return blocks reach Python, as plain ints.
        events = np.flatnonzero(is_ret | is_call)
        for b, ret, pc in zip(events.tolist(), is_ret[events].tolist(),
                              compiled.exit_pc[events].tolist()):
            if ret:
                top = ras.peek(0)
                if top is not None:
                    peeks[b] = top
                ras.pop()
            else:
                ras.push(pc + 1)
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
    The operands may be the compiled ``int32`` arrays; the keys are
    packed in ``int64``.
    """
    lines, positions, values = (np.asarray(a, dtype=np.int64)
                                for a in (lines, positions, values))
    if isinstance(targets, DualBTBTargetArray):
        return _replay_btb(targets._btb, which, lines, positions, values)
    if isinstance(targets, BlockBTB):
        return _replay_btb(targets, which, lines, positions, values)
    arrays = [targets] if isinstance(targets, NLSTargetArray) \
        else targets._arrays  # MultiTargetArray
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
# The engines' fetch schedules
# ----------------------------------------------------------------------

def run_single_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`SingleBlockEngine.run` (no recovery tracking)."""
    return _run_fast(engine, fetch_input, group=1, targets=engine.targets,
                     exit_line=True, bit_table=engine.bit_table)


def run_multi_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`MultiBlockEngine.run` (no timeline recording);
    the dual engine is its N = 2 configuration."""
    return _run_fast(engine, fetch_input, group=engine.n,
                     targets=engine.targets, selects=engine.selects,
                     double=engine.double)


def run_two_ahead_fast(engine, fetch_input) -> FetchStats:
    """Vectorized :meth:`TwoBlockAheadEngine.run`."""
    return _run_fast(engine, fetch_input, group=2, targets=engine.targets,
                     shift=1, ahead=True, late_taken_extra=False,
                     serialization_penalty=engine.serialization_penalty)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

def _run_fast(engine, fetch_input, *, group: int, targets,
              selects: Sequence = (), double: bool = False, shift: int = 0,
              ahead: bool = False, exit_line: bool = False,
              late_taken_extra: bool = True,
              serialization_penalty: int = 0,
              bit_table=None) -> FetchStats:
    """Replay one engine's block stream under its fetch schedule.

    * ``group`` blocks share a fetch cycle; block ``i`` fills slot
      ``(i + shift) % group``.
    * ``targets`` and ``selects`` are the engine's target array and
      select tables.  ``double`` picks Table 3's double-selection
      column.  A group cut short by the end of the stream trains no
      select table.
    * ``ahead`` indexes the PHT and target array through the previous
      block.  ``exit_line`` indexes the target array by each block's own
      exit line instead: the single engine, which has no cold-start
      group.
    * ``late_taken_extra`` lets an untracked not-taken target cost LATE
      divergences a cycle; ``serialization_penalty`` is charged to each
      later second-slot block; ``bit_table`` is the single engine's
      separate BIT table.
    """
    heap.keep_freed_memory()  # once per process: reuse freed temporaries
    scheme = DOUBLE_SELECT if double else SINGLE_SELECT
    with profile.phase("prep"):
        run = _Run(engine, fetch_input, group, shift, ahead)
        n = run.n
        # The single engine fetches one block per cycle; the grouped
        # schedules fetch b0 alone, then one group of N per cycle.
        stats = _empty_stats(
            run.trace, n, base_cycles=n if exit_line
            else 1 + (max(n, 1) - 2 + group) // group)
        if n == 0:
            return stats
        late_extra = late_taken_extra \
            and not run.config.track_not_taken_targets
        _prep(run, stats, scheme, engine.ras, bit_table, late_extra,
              serialization_penalty)
    with profile.phase("residual"):
        if selects:
            _replay_selects(run, stats, scheme, selects, double)
        _residual_targets(run, stats, scheme, targets, exit_line)
    return stats


def _slot_cycles(scheme: str, slots, kind: PenaltyKind) -> np.ndarray:
    """Table 3 cycles of ``kind`` for each 0-based fetch slot."""
    return np.array([penalty_cycles_slot(scheme, s + 1, kind)
                     for s in slots], dtype=np.int64)


def _prep(run: _Run, stats: FetchStats, scheme: str, ras, bit_table,
          late_extra: bool, serialization_penalty: int) -> None:
    """Front half: every charge and state update but the residual's.

    Resolves the walks (and the BIT table's stale walks), charges BIT,
    COND, RETURN, serialization and bank-conflict cycles, replays the
    RAS and records the residual inputs (:meth:`_Run.finish`).
    """
    compiled = run.compiled
    group = run.group
    run.resolve(bit_table=bit_table)

    # Separate BIT table: stale-walk mismatches, counters and state.
    if bit_table is not None:
        walk = run.walk
        mismatch = (run.stale_walk.sel != walk.sel) \
            | (run.stale_walk.pay != walk.pay)
        count = int(np.count_nonzero(mismatch))
        _charge_bulk(stats, PenaltyKind.BIT, count,
                     count * penalty_cycles(scheme, 1, PenaltyKind.BIT))
        bit_table.accesses += run.stale.accesses
        bit_table.stale_hits += run.stale.stale_hits
        for entry, line in zip(run.stale.final_slots.tolist(),
                               run.stale.final_lines.tolist()):
            bit_table._lines[entry] = line
            bit_table._codes[entry] = _line_codes_tuple(compiled, line,
                                                        run.line_size)

    slot = run.slot_of(np.arange(run.n, dtype=np.int64))
    match, early, late = run.classify()
    count, cycles = run.cond_charges(
        early, late, slot,
        _slot_cycles(scheme, range(group), PenaltyKind.COND), late_extra)
    _charge_bulk(stats, PenaltyKind.COND, count, cycles)

    peeks = run.replay_ras(ras)
    ret_bad = match & run.is_ret & (peeks != compiled.exit_target)
    ret_cycles = _slot_cycles(scheme, range(group), PenaltyKind.RETURN)
    _charge_bulk(stats, PenaltyKind.RETURN,
                 int(np.count_nonzero(ret_bad)),
                 int(ret_cycles[slot[ret_bad]].sum()))

    if serialization_penalty:
        # Each second-slot block after b0 waits on its first's prediction.
        count = int(np.count_nonzero(slot[1:] == 1))
        _charge_bulk(stats, PenaltyKind.MISSELECT, count,
                     count * serialization_penalty)

    if group > 1:
        # Bank claim sets over each group fetched together; the first
        # member never pays.
        conflict = bank_conflicts(compiled.line0, group,
                                  run.geometry)[:, 1:]
        bank = _slot_cycles(scheme, range(1, group),
                            PenaltyKind.BANK_CONFLICT)
        _charge_bulk(stats, PenaltyKind.BANK_CONFLICT,
                     int(np.count_nonzero(conflict)),
                     int((conflict * bank).sum()))

    run.finish(match)


def _residual_targets(run: _Run, stats: FetchStats, scheme: str, targets,
                      exit_line: bool) -> None:
    """Replay the target array: slot ``s`` uses target number ``s``.

    Entries are indexed by the block's exit line, or else by the first
    line of the block that anchors its prediction: its group's first
    block, or with ``ahead`` indexing the previous block.
    """
    todo = run.todo
    which = run.slot_of(todo)
    if exit_line:
        line = run.compiled.exit_pc[todo] // run.line_size
    else:
        anchor = todo if run.ahead else todo - which
        line = run.anchor_start[anchor] // run.line_size
    slots = range(run.group)
    run.charge_targets(
        stats, targets, which, line,
        _slot_cycles(scheme, slots, PenaltyKind.MISFETCH_IMMEDIATE),
        _slot_cycles(scheme, slots, PenaltyKind.MISFETCH_INDIRECT))


# ----------------------------------------------------------------------
# Select tables
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


def _seed_select(width: int, entries) -> np.ndarray:
    """Select entries packed as ``sel * base + pay``.

    Cold entries encode to 0 — exactly the fall-through default a cold
    read returns — so reads need no presence check.
    """
    packed = np.zeros(len(entries), dtype=np.int64)
    if entries.count(None) == len(entries):
        return packed
    base = _payload_base(width)
    for i, entry in enumerate(entries):
        if entry is not None:
            sel, pay = _encode_select_entry(width, entry)
            packed[i] = sel * base + pay
    return packed


def _replay_selects(run: _Run, stats: FetchStats, scheme: str, selects,
                    double: bool) -> None:
    """Verify and train every select table over one event stream.

    Table ``t`` predicts slot ``t`` of each group under double selection
    (the anchor verifies its own selector too) and slot ``t + 1`` under
    single selection; all are indexed by the group's anchor.  A stored
    selector that disagrees with the walk charges a misselect; an
    agreeing selector with a different payload charges GHR.  Each table
    then holds the last walk a complete group wrote to each of its slots.
    """
    n = run.n
    group = run.group
    width = run.width
    seeds = [_seed_select(width, table._entries) for table in selects]
    served = [t if double else t + 1 for t in range(len(seeds))]
    blocks = [np.arange(s, n, group, dtype=np.int64) for s in served]
    events = np.concatenate(blocks)
    tables = np.repeat(np.arange(len(seeds), dtype=np.int64),
                       [b.shape[0] for b in blocks])
    anchors = events - run.slot_of(events)
    writes = anchors + group <= n

    walk = run.walk
    base = _payload_base(width)
    packed = walk.sel * base + walk.pay
    size = seeds[0].shape[0]
    observed, fin_k, fin_v = replay_last_write(
        tables * size + _select_key(run, selects[0], anchors),
        packed[events], writes, np.concatenate(seeds))
    mis = (observed // base) != walk.sel[events]
    bad_pay = ~mis & (observed != packed[events])
    for kind, hit in ((PenaltyKind.MISSELECT, mis),
                      (PenaltyKind.GHR, bad_pay)):
        _charge_bulk(stats, kind, int(np.count_nonzero(hit)),
                     int(_slot_cycles(scheme, served, kind)[
                         tables[hit]].sum()))

    for k, v in zip(fin_k.tolist(), fin_v.tolist()):
        selects[k // size]._entries[k % size] = _decode_select_entry(
            width, v // base, v % base)


def _select_key(run: _Run, select, blocks: np.ndarray) -> np.ndarray:
    """Select-table slot that ``blocks`` (the anchors) read and write."""
    table = (run.anchor_start[blocks] % run.line_size) % select.n_tables
    return table * select.n_entries \
        + (run.base[blocks] & (select.n_entries - 1))
