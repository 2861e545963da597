"""Two-block-ahead baseline (Seznec, Jourdan, Sainrat & Michaud [8]).

The paper's Section 1 discusses the ASPLOS'96 multiple-block-ahead
predictor: "their idea is to always use the current instruction block
information to predict the block following the next instruction block.
Its accuracy is as good as a single block fetching and requires little
additional storage cost.  The major drawback ... is that the prediction
for the second block is dependent on the prediction from the first block
(the tag-matching is serialized).  Our scheme, however, is able to
predict multiple blocks in parallel without such a dependency."

Functional model used here: a dual-block fetcher in which **every**
block's exit is predicted by a full BIT+PHT walk (no select table — hence
no misselect or GHR-payload penalties), but the pattern-history index for
block ``j`` is formed from the *previous* block's address and the GHR as
it stood before that block — the "ahead" indexing that lets the
prediction start early.  Block contents (BIT codes) are taken from the
block itself, idealising the part of the scheme the authors realise with
per-entry stored predictions; what the model preserves is the accuracy
structure (full PHT, slightly stale history) and the serial dependency,
exposed as a configurable ``serialization_penalty`` charged per fetched
pair (0 = ignore timing, 1 = one bubble per pair when cycle time cannot
absorb the serialized tag match).
"""

from __future__ import annotations

from ..icache.banks import group_conflicts
from ..predictors.blocked import BlockedPHT
from ..predictors.ghr import GlobalHistory
from ..targets.ras import ReturnAddressStack
from .config import EngineConfig, FetchInput, TARGET_NLS
from .engine_mode import use_fast_engine
from .engine_common import BlockCursor, BlockEngine
from .multi import MultiTargetArray
from .penalties import PenaltyKind, SINGLE_SELECT, penalty_cycles
from .selection import CodeWindowCache, walk_block
from .stats import FetchStats


class TwoBlockAheadEngine(BlockEngine):
    """Dual-block fetching with block-ahead indexed predictions."""

    def __init__(self, config: EngineConfig,
                 serialization_penalty: int = 0) -> None:
        if config.target_kind != TARGET_NLS:
            raise ValueError("the two-block-ahead model uses NLS arrays")
        if serialization_penalty < 0:
            raise ValueError("serialization_penalty must be >= 0")
        self.config = config
        self.serialization_penalty = serialization_penalty
        geometry = config.geometry
        self.pht = BlockedPHT(config.history_length, geometry.block_width,
                              config.n_pht_tables)
        self.targets = MultiTargetArray(2, config.target_entries,
                                        geometry.line_size)
        self.ras = ReturnAddressStack(config.ras_size)

    def run(self, fetch_input: FetchInput) -> FetchStats:
        """Replay the block stream with block-ahead predictions."""
        config = self.config
        if use_fast_engine():
            from .fast import run_two_ahead_fast
            return run_two_ahead_fast(self, fetch_input)
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
        n_blocks = cursor.n_blocks

        stats = FetchStats(
            n_blocks=n_blocks,
            n_instructions=trace.n_instructions,
            n_branches=trace.n_branches,
            n_cond=trace.n_cond,
            base_cycles=1 + n_blocks // 2,
        )

        # "Ahead" state: the index context of the previous block.
        prev_ghr = ghr.value
        nxt = cursor.block(0) if n_blocks else None
        prev_addr = nxt.start if n_blocks else 0

        for i in range(n_blocks):
            # Each block is built once: as the pair's second block, it
            # was already read for the first block's bank check.
            blk = nxt
            nxt = cursor.block(i + 1) if i + 1 < n_blocks else None
            slot = 1 if i % 2 == 1 else 2  # pairs are (odd, even)
            limit = geometry.block_limit(blk.start)
            window = codes.window(blk.start, limit)
            # Block-ahead index: previous block's address + its pre-GHR.
            index = pht.index(prev_ghr,
                              prev_addr // geometry.block_width)
            walk = walk_block(window, blk.start, limit, pht, index)

            # No select table and no re-read: a LATE divergence costs
            # no extra cycle.
            key = (slot, prev_addr // geometry.line_size)
            self._analyze(walk, blk, stats, SINGLE_SELECT, slot, key,
                          late_taken_extra=False)

            # Advance the ahead context, then train at the same ahead
            # index the prediction used.
            prev_ghr = ghr.value
            prev_addr = blk.start
            self._train(walk, blk, index, ghr, key)

            # Serialization: the second block's tag-match waits on the
            # first's prediction (the drawback the paper highlights).
            if slot == 2 and i >= 2 and self.serialization_penalty:
                stats.charge(PenaltyKind.MISSELECT,
                             self.serialization_penalty)

            # Bank conflicts between the pair's blocks.
            if slot == 1 and nxt is not None:
                if group_conflicts(geometry, [
                        geometry.lines_for_block(blk.start, blk.n_instr),
                        geometry.lines_for_block(nxt.start, nxt.n_instr)])[1]:
                    stats.charge(PenaltyKind.BANK_CONFLICT, penalty_cycles(
                        SINGLE_SELECT, 2, PenaltyKind.BANK_CONFLICT))

        return stats
