"""Grouped fetch engine — Section 3's dual-block mechanism (Figures 2-5)
and Section 5's ">2 blocks per cycle" extension.

"In addition, it is possible to predict more than two blocks per cycle.
In that case, the cost grows proportionally to the number of blocks
predicted.  Another block prediction basically requires another select
table and target array, and another read/write port to the PHT and BIT
tables."

``n_blocks_per_cycle`` = N blocks are fetched per cycle: they group as
``(b1..bN), (bN+1..b2N), ...`` after the lone cold-start block ``b0``.
Each group's predictions anchor on the last block of the previous group
(b0, bN, ...): its BIT + blocked-PHT walk predicts the group's first
block, and select tables — all indexed like the PHT (``GHR XOR anchor
address``) — predict the rest ("predict our prediction").  At N = 2 this
is the paper's dual-block engine, :class:`~repro.core.dual.DualBlockEngine`.
Penalties for slots 1 and 2 are Table 3 verbatim; later slots extrapolate
the table's +1-per-slot pattern (see
:func:`repro.core.penalties.penalty_cycles_slot`).

Selection schemes:

* **single** (Figure 2/3): the group's first block is predicted from
  BIT + PHT, the others from one select table each.  Misselect and
  GHR-misprediction penalties hit the later slots only.
* **double** (Figure 4/5): one more select table predicts the first
  block too, eliminating BIT storage but adding a verification penalty
  on the first block and deepening the others' (Table 3's double-select
  columns).

A group's select-table writes take effect once the group is complete: a
group cut short by the end of the stream trains no select table.  Each
table is read once per group, so deferring the writes changes no read.

The return-address stack is architectural and trained block-by-block in
fetch order, which reproduces exactly the call/return bypassing of Section
3.1 (a call in the first block bypasses its return address to the second;
a return in the first block exposes the next-older entry).

``tests/core/test_dual_reference.py`` keeps the paper's hand-written
dual-block loop and checks this engine at N = 2 against it, state for
state, so the extension is a strict generalisation, not a
reinterpretation.
"""

from __future__ import annotations

from typing import List, Optional

from ..icache.banks import group_conflicts
from ..predictors.blocked import BlockedPHT
from ..predictors.ghr import GlobalHistory
from ..targets.btb import DualBTBTargetArray
from ..targets.nls import NLSTargetArray
from ..targets.ras import ReturnAddressStack
from .config import EngineConfig, FetchInput, TARGET_BTB
from .engine_mode import use_fast_engine
from .engine_common import ActualBlock, BlockCursor, BlockEngine
from .penalties import DOUBLE_SELECT, PenaltyKind, SINGLE_SELECT, \
    penalty_cycles_slot
from .select_table import SelectEntry, SelectTable
from .selection import BlockPrediction, CodeWindowCache, walk_block
from .stats import FetchStats


class MultiTargetArray:
    """N parallel tag-less target arrays, one per fetch slot.

    "Although the NLS must have two target arrays, a BTB may use its tag
    to indicate the target number."  All slots are indexed by the current
    anchor block's line, so one branch may be duplicated across slots —
    the duplication the paper warns of for the dual case, growing with N.
    """

    def __init__(self, n_slots: int, n_block_entries: int = 256,
                 line_size: int = 8) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be positive")
        self.n_slots = n_slots
        self._arrays = [NLSTargetArray(n_block_entries, line_size)
                        for _ in range(n_slots)]

    def _array(self, slot: int) -> NLSTargetArray:
        if not 1 <= slot <= self.n_slots:
            raise ValueError(f"slot must be in 1..{self.n_slots}, "
                             f"got {slot}")
        return self._arrays[slot - 1]

    def lookup(self, slot: int, line: int, position: int) -> Optional[int]:
        """Predicted target from the given slot's array (1-based)."""
        return self._array(slot).lookup(line, position)

    def update(self, slot: int, line: int, position: int,
               target: int) -> None:
        """Train the given slot's array (1-based)."""
        self._array(slot).update(line, position, target)

    @property
    def storage_bits(self) -> int:
        """Total cost across all slots."""
        return sum(a.storage_bits for a in self._arrays)


class MultiBlockEngine(BlockEngine):
    """Fetches ``n_blocks_per_cycle`` blocks per cycle."""

    def __init__(self, config: EngineConfig,
                 n_blocks_per_cycle: int = 2) -> None:
        if n_blocks_per_cycle < 1:
            raise ValueError("n_blocks_per_cycle must be positive")
        if config.bit_entries is not None:
            raise ValueError("the multi-block engine assumes BIT "
                             "information is stored in the i-cache")
        if config.target_kind == TARGET_BTB and n_blocks_per_cycle > 2:
            raise ValueError("the multi-block engine models BTB target "
                             "arrays for at most two blocks per cycle "
                             "(the tag holds target number 1 or 2)")
        self.config = config
        self.n = n_blocks_per_cycle
        geometry = config.geometry
        self.pht = BlockedPHT(config.history_length, geometry.block_width,
                              config.n_pht_tables)
        if config.target_kind == TARGET_BTB:
            self.targets = DualBTBTargetArray(config.target_entries,
                                              geometry.line_size,
                                              config.btb_associativity)
        else:
            self.targets = MultiTargetArray(self.n, config.target_entries,
                                            geometry.line_size)
        self.ras = ReturnAddressStack(config.ras_size)
        self.double = config.selection == DOUBLE_SELECT
        # One select table per predicted-ahead slot; double selection adds
        # one more for the anchor's own (first) selection.
        n_tables = self.n if self.double else self.n - 1
        self.selects: List[SelectTable] = [
            SelectTable(config.history_length, config.n_select_tables,
                        geometry.line_size)
            for _ in range(n_tables)
        ]

    # ------------------------------------------------------------------

    def run(self, fetch_input: FetchInput,
            record_timeline: bool = False) -> FetchStats:
        """Replay the block stream N blocks per cycle.

        With ``record_timeline`` the returned stats carry a per-cycle
        delivered-instruction timeline (stall cycles deliver 0) for
        :func:`repro.metrics.issue.simulate_issue`.  ``b0`` ships alone,
        then each group of N ships together; stalls are emitted before
        the next delivery.
        """
        config = self.config
        # Timeline recording needs per-cycle delivery interleaving, which
        # only the reference loop tracks.
        if not record_timeline and use_fast_engine():
            from .fast import run_multi_fast
            return run_multi_fast(self, fetch_input)
        geometry = config.geometry
        if geometry != fetch_input.geometry:
            raise ValueError("fetch input was segmented under a different "
                             "cache geometry")
        codes = CodeWindowCache(fetch_input.static, geometry,
                                config.near_block)
        self._static_targets = fetch_input.static.direct_target
        cursor = BlockCursor(fetch_input.blocks)
        trace = fetch_input.trace
        ghr = GlobalHistory(config.history_length)
        pht = self.pht
        n = self.n
        scheme = DOUBLE_SELECT if self.double else SINGLE_SELECT
        n_blocks = cursor.n_blocks

        stats = FetchStats(
            n_blocks=n_blocks,
            n_instructions=trace.n_instructions,
            n_branches=trace.n_branches,
            n_cond=trace.n_cond,
            base_cycles=1 + (n_blocks - 2 + n) // n if n_blocks > 1 else 1,
        )
        timeline = [] if record_timeline else None
        carry = 0    # the group's blocks before its last, pending delivery
        flushed = 0  # penalty cycles already emitted as stalls

        def emit_delivery(delivered: int) -> None:
            nonlocal flushed
            timeline.extend([0] * (stats.penalty_cycles - flushed))
            flushed = stats.penalty_cycles
            timeline.append(delivered)

        following = cursor.block(0) if n_blocks else None
        for a in range(0, n_blocks, n):
            # The block after the group is fetched with it and anchors
            # the next group: build it once.
            anchor = following
            following = cursor.block(a + n) if a + n < n_blocks else None
            anchor_line = anchor.start // geometry.line_size
            # History index at block-width granularity: an extended line
            # holds two blocks whose PHT/ST entries must stay distinct
            # (positions wrap modulo B, so line-granular indexing would
            # alias them destructively).
            index = pht.index(ghr.value,
                              anchor.start // geometry.block_width)
            group: List[ActualBlock] = []
            writes = []
            # Block a + k's walk predicts slot k + 1 of the next group.
            for k in range(min(n, n_blocks - a)):
                if k:
                    blk = cursor.block(a + k)
                    group.append(blk)
                    blk_index = pht.index(ghr.value,
                                          blk.start // geometry.block_width)
                else:
                    blk, blk_index = anchor, index
                limit = geometry.block_limit(blk.start)
                walk = walk_block(codes.window(blk.start, limit), blk.start,
                                  limit, pht, blk_index)
                t = k if self.double else k - 1
                if t >= 0:
                    table = self.selects[t]
                    self._verify(table.read(index, anchor.start), walk,
                                 stats, scheme, slot=k + 1)
                    writes.append((table, SelectEntry(walk.selector,
                                                      walk.ghr_payload)))
                key = (k + 1, anchor_line)
                self._analyze(walk, blk, stats, scheme, k + 1, key)
                self._train(walk, blk, blk_index, ghr, key)
                if timeline is None:
                    continue
                if k:
                    carry += blk.n_instr
                else:
                    # The anchor completes the previous group; b0 ships
                    # alone.
                    emit_delivery(carry + blk.n_instr)
                    carry = 0

            if a + n <= n_blocks:  # only a complete group trains them
                for table, entry in writes:
                    table.write(index, anchor.start, entry)
            fetched = group + [following] if following else group
            conflicts = group_conflicts(geometry, [
                geometry.lines_for_block(blk.start, blk.n_instr)
                for blk in fetched])
            for slot, conflict in enumerate(conflicts[1:], start=2):
                if conflict:
                    stats.charge(PenaltyKind.BANK_CONFLICT,
                                 penalty_cycles_slot(
                                     scheme, slot, PenaltyKind.BANK_CONFLICT))

        if timeline is not None:
            if carry:
                emit_delivery(carry)  # a trailing short group ships alone
            timeline.extend([0] * (stats.penalty_cycles - flushed))
            stats.timeline = timeline
        return stats

    # ------------------------------------------------------------------

    def _verify(self, stored: SelectEntry, walk: BlockPrediction,
                stats: FetchStats, scheme: str, slot: int) -> None:
        """Misselect / GHR penalties of a stored selection."""
        if stored.selector != walk.selector:
            stats.charge(PenaltyKind.MISSELECT, penalty_cycles_slot(
                scheme, slot, PenaltyKind.MISSELECT))
        elif stored.outcomes != walk.ghr_payload:
            stats.charge(PenaltyKind.GHR, penalty_cycles_slot(
                scheme, slot, PenaltyKind.GHR))
