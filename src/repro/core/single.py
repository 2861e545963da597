"""Single-block fetch engine — Section 2's mechanism (Figure 1).

One block is fetched per cycle.  Every cycle the engine walks the block's
BIT and blocked-PHT information to find the first predicted-taken exit,
selects the next fetch line from the Table 1 source, and charges Table 3
block-1 penalties when the prediction diverges from the trace.

With ``EngineConfig.bit_entries`` set, BIT information comes from a
separate tag-less table whose stale entries cost a cycle (Figure 7);
otherwise BIT is pre-decoded in the (perfect) instruction cache and always
correct.
"""

from __future__ import annotations

from typing import List, Optional

from ..predictors.blocked import BlockedPHT
from ..predictors.counters import counter_has_second_chance
from ..predictors.ghr import GlobalHistory
from ..targets.bit import BITTable, BitCode
from ..targets.btb import BlockBTB
from ..targets.nls import NLSTargetArray
from ..targets.ras import ReturnAddressStack
from .config import EngineConfig, FetchInput, TARGET_BTB
from .engine_mode import use_fast_engine
from .engine_common import ActualBlock, BlockCursor, BlockEngine
from .penalties import PenaltyKind, SINGLE_SELECT, penalty_cycles
from .recovery import RecoveryEntry
from .selection import (
    BlockPrediction,
    CodeWindowCache,
    SRC_ARRAY,
    SRC_RAS,
    walk_block,
)
from .stats import FetchStats


class SingleBlockEngine(BlockEngine):
    """Fetches one block per cycle using BIT + blocked-PHT prediction."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        geometry = config.geometry
        self.pht = BlockedPHT(config.history_length, geometry.block_width,
                              config.n_pht_tables)
        if config.target_kind == TARGET_BTB:
            self.targets = BlockBTB(config.target_entries, geometry.line_size,
                                    config.btb_associativity)
        else:
            self.targets = NLSTargetArray(config.target_entries,
                                          geometry.line_size)
        self.ras = ReturnAddressStack(config.ras_size)
        self.bit_table: Optional[BITTable] = None
        if config.bit_entries is not None:
            self.bit_table = BITTable(config.bit_entries, geometry.line_size)
        self.recovery_log: List[RecoveryEntry] = []

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, fetch_input: FetchInput) -> FetchStats:
        """Replay the block stream, returning aggregated fetch metrics."""
        config = self.config
        # Recovery tracking needs the per-branch scalar walk context, so
        # it always takes the reference loop.
        if not config.track_recovery and use_fast_engine():
            from .fast import run_single_fast
            return run_single_fast(self, fetch_input)
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
        line_size = geometry.line_size

        stats = FetchStats(
            n_blocks=cursor.n_blocks,
            n_instructions=trace.n_instructions,
            n_branches=trace.n_branches,
            n_cond=trace.n_cond,
            base_cycles=cursor.n_blocks,
        )

        for i in range(cursor.n_blocks):
            actual = cursor.block(i)
            start = actual.start
            limit = geometry.block_limit(start)
            # Block-width-granular history index (see MultiBlockEngine).
            pht_base = pht.index(ghr.value, start // geometry.block_width)
            window = codes.window(start, limit)
            pred = walk_block(window, start, limit, pht, pht_base)

            # Separate BIT table: a stale walk that differs costs a cycle.
            if self.bit_table is not None:
                stale = self._stale_window(start, limit)
                stale_pred = walk_block(stale, start, limit, pht, pht_base)
                if stale_pred != pred:
                    stats.charge(PenaltyKind.BIT, penalty_cycles(
                        SINGLE_SELECT, 1, PenaltyKind.BIT))
                self._fill_bit(codes, start, limit)

            if config.track_recovery:
                self._record_recovery(pred, actual, window, start, limit,
                                      pht_base, ghr)

            # Target arrays are keyed by the exit's own line.
            key = (actual.exit_pc // line_size,)
            self._analyze(pred, actual, stats, SINGLE_SELECT, 1, key)
            self._train(pred, actual, pht_base, ghr, key)

        return stats

    # ------------------------------------------------------------------
    # BIT-table plumbing
    # ------------------------------------------------------------------

    def _stale_window(self, start: int, limit: int):
        """Assemble the window as the separate BIT table would supply it."""
        line_size = self.config.geometry.line_size
        table = self.bit_table
        result = []
        addr = start
        remaining = limit
        while remaining > 0:
            line = addr // line_size
            offset = addr % line_size
            span = min(remaining, line_size - offset)
            stored, _exact = table.access(line)
            if stored is None:
                result.extend([BitCode.NONBRANCH] * span)
            else:
                result.extend(stored[offset:offset + span])
            addr += span
            remaining -= span
        return tuple(result)

    def _fill_bit(self, codes: CodeWindowCache, start: int,
                  limit: int) -> None:
        line_size = self.config.geometry.line_size
        first = start // line_size
        last = (start + limit - 1) // line_size
        for line in range(first, last + 1):
            self.bit_table.fill(line, codes.line_codes(line))

    # ------------------------------------------------------------------
    # Recovery entries (Table 4)
    # ------------------------------------------------------------------

    def _record_recovery(self, pred: BlockPrediction, actual: ActualBlock,
                         window, start: int, limit: int, pht_base: int,
                         ghr: GlobalHistory) -> None:
        """Record a BBR entry for each conditional the walk predicted."""
        pht = self.pht
        line_size = self.config.geometry.line_size
        walked = (pred.exit_offset + 1 if pred.exit_offset is not None
                  else limit)
        n_outcome = 0
        for offset in range(walked):
            code = window[offset]
            if code == BitCode.NONBRANCH or code == BitCode.RETURN \
                    or code == BitCode.OTHER:
                continue
            pc = start + offset
            predicted_taken = pred.outcomes[n_outcome]
            n_outcome += 1
            counter = pht.counter(pht_base, pht.position(pc))
            # Alternate path: where fetch restarts if this branch flips.
            if predicted_taken:
                continuation = walk_block(window[offset + 1:], pc + 1,
                                          limit - offset - 1, pht, pht_base)
                if continuation.source == SRC_RAS:
                    alt = self.ras.peek(0) or 0
                elif continuation.source == SRC_ARRAY:
                    alt_pc = pc + 1 + (continuation.exit_offset or 0)
                    alt = self.targets.lookup(alt_pc // line_size,
                                              alt_pc % line_size) or 0
                else:
                    alt = start + limit
                replacement = continuation.selector
            else:
                alt = int(self._static_targets[pc]) \
                    if pc < len(self._static_targets) else 0
                replacement = (SRC_ARRAY, offset, None)
            corrected = GlobalHistory(ghr.length, ghr.value)
            corrected.shift_in_block(pred.outcomes[:n_outcome - 1]
                                     + (not predicted_taken,))
            self.recovery_log.append(RecoveryEntry(
                block_slot=1,
                predicted_taken=predicted_taken,
                second_chance=counter_has_second_chance(counter,
                                                        predicted_taken),
                pht_index=pht_base,
                pht_block=tuple(pht.entry(pht_base)),
                corrected_ghr=corrected.value,
                replacement_selector=replacement,
                alternate_target=alt if alt is not None else 0,
            ))
