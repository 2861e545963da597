"""Shared machinery of the scalar fetch engines.

Every engine replays the correct-path block stream, compares what the
prediction hardware would have selected against what actually happened, and
charges Table 3 penalties at the first divergence in each block.  This module
holds the actual-block view, the divergence/target classification, and the
one analysis and training step (:class:`BlockEngine`) all engines share.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..isa.kinds import InstrKind
from ..predictors.ghr import GlobalHistory
from ..trace.blocks import BlockStream, EXIT_FALLTHROUGH
from .penalties import PenaltyKind, penalty_cycles_slot
from .selection import BlockPrediction, SRC_NEAR
from .stats import FetchStats

K_COND = int(InstrKind.COND)
K_JUMP = int(InstrKind.JUMP)
K_CALL = int(InstrKind.CALL)
K_RETURN = int(InstrKind.RETURN)
K_INDIRECT = int(InstrKind.INDIRECT)
K_HALT = int(InstrKind.HALT)

#: Divergence classes between a walk and the actual block.
MATCH = 0        #: same exit position (or both fall through)
EARLY_TAKEN = 1  #: a conditional predicted taken actually fell through
LATE_TAKEN = 2   #: a taken conditional was predicted not taken


class ActualBlock:
    """Resolved view of one fetched block (from the trace)."""

    __slots__ = ("start", "n_instr", "exit_kind", "exit_pc", "exit_target",
                 "exit_offset", "conds")

    def __init__(self, start: int, n_instr: int, exit_kind: int,
                 exit_target: int,
                 conds: List[Tuple[int, bool, int]]) -> None:
        self.start = start
        self.n_instr = n_instr
        self.exit_kind = exit_kind
        self.exit_target = exit_target
        self.conds = conds  #: [(offset, taken, pc)] in block order
        if exit_kind in (EXIT_FALLTHROUGH, K_HALT):
            self.exit_offset: Optional[int] = None
            self.exit_pc = -1
        else:
            self.exit_offset = n_instr - 1
            self.exit_pc = start + n_instr - 1

    @property
    def has_taken_exit(self) -> bool:
        """True when the block ended in a taken control transfer."""
        return self.exit_offset is not None

    @property
    def outcomes(self) -> List[bool]:
        """Actual conditional outcomes, in block order."""
        return [taken for (_, taken, _) in self.conds]


class BlockCursor:
    """Sequential reader producing :class:`ActualBlock` views.

    Materialises the numpy block/record arrays as Python lists once — the
    engines' hot loops then run on plain ints.
    """

    def __init__(self, blocks: BlockStream) -> None:
        trace = blocks.trace
        self._t_pc = trace.pc.tolist()
        self._t_kind = trace.kind.tolist()
        self._t_taken = trace.taken.tolist()
        self._t_target = trace.target.tolist()
        self._start = blocks.start.tolist()
        self._n_instr = blocks.n_instr.tolist()
        self._exit_kind = blocks.exit_kind.tolist()
        self._exit_target = blocks.exit_target.tolist()
        self._first_rec = blocks.first_rec.tolist()
        self._n_recs = blocks.n_recs.tolist()
        self.n_blocks = len(self._start)

    def block(self, i: int) -> ActualBlock:
        """The ``i``-th fetched block."""
        start = self._start[i]
        first = self._first_rec[i]
        conds = []
        for r in range(first, first + self._n_recs[i]):
            if self._t_kind[r] == K_COND:
                conds.append((self._t_pc[r] - start, self._t_taken[r],
                              self._t_pc[r]))
        return ActualBlock(start, self._n_instr[i], self._exit_kind[i],
                           self._exit_target[i], conds)


def classify_divergence(pred: BlockPrediction,
                        actual: ActualBlock) -> Tuple[int, Optional[int]]:
    """First divergence between a (true-BIT) walk and the actual block.

    Returns ``(MATCH|EARLY_TAKEN|LATE_TAKEN, offset)``.  With correct type
    information the only possible disagreements are conditional-branch
    directions, so a divergence is always at a conditional branch.
    """
    p = pred.exit_offset
    a = actual.exit_offset
    if p == a:
        return MATCH, p
    if p is not None and (a is None or p < a):
        return EARLY_TAKEN, p
    return LATE_TAKEN, a


def target_misfetch_kind(exit_kind: int,
                         direct_target: int) -> Optional[PenaltyKind]:
    """Penalty category when a correctly-predicted exit's target is wrong.

    Conditional branches and direct jumps/calls misfetch *immediately*
    (the real target comes out of decode one cycle later); register-target
    transfers misfetch *indirectly* (resolved much later).  Returns are
    handled separately through the RAS.
    """
    if exit_kind == K_COND:
        return PenaltyKind.MISFETCH_IMMEDIATE
    if exit_kind in (K_JUMP, K_CALL):
        if direct_target >= 0:
            return PenaltyKind.MISFETCH_IMMEDIATE
        return PenaltyKind.MISFETCH_INDIRECT
    if exit_kind == K_INDIRECT:
        return PenaltyKind.MISFETCH_INDIRECT
    return None


class BlockEngine:
    """Per-block analysis and training shared by the scalar engines.

    A subclass owns ``config``, ``pht``, ``targets`` and ``ras``, and
    sets ``_static_targets`` at the start of each run.  A block in fetch
    slot ``slot`` is charged that slot's Table 3 column
    (:func:`~repro.core.penalties.penalty_cycles_slot`).  ``key`` is the
    target-array key before the exit's line position: ``(exit line,)``
    for the single engine, ``(target number, anchor line)`` for the
    grouped ones.
    """

    def _analyze(self, pred: BlockPrediction, actual: ActualBlock,
                 stats: FetchStats, scheme: str, slot: int, key: tuple,
                 late_taken_extra: bool = True) -> None:
        """Charge the first divergence of ``pred`` from ``actual``.

        ``late_taken_extra`` lets an untracked not-taken target cost a
        LATE divergence a cycle (the two-block-ahead model re-reads
        nothing).
        """
        if actual.exit_kind == K_HALT:
            return
        outcome, offset = classify_divergence(pred, actual)
        if outcome != MATCH:
            cycles = penalty_cycles_slot(scheme, slot, PenaltyKind.COND)
            if slot >= 2:
                cycles += 1  # "a misprediction on the second block always
                #               requires another cycle"
            elif outcome == EARLY_TAKEN and actual.n_instr - 1 - offset > 0:
                cycles += 1  # re-fetch the remaining valid instructions
            if outcome == LATE_TAKEN and late_taken_extra \
                    and not self.config.track_not_taken_targets:
                cycles += 1  # re-read the target array after resolution
            stats.charge(PenaltyKind.COND, cycles)
            return
        # MATCH: direction agrees; verify the target.
        if not actual.has_taken_exit:
            return
        exit_kind = actual.exit_kind
        exit_pc = actual.exit_pc
        if exit_kind == K_RETURN:
            if self.ras.peek(0) != actual.exit_target:
                stats.charge(PenaltyKind.RETURN, penalty_cycles_slot(
                    scheme, slot, PenaltyKind.RETURN))
            return
        if pred.source == SRC_NEAR:
            return  # near-block adder targets are exact
        direct = int(self._static_targets[exit_pc]) \
            if exit_pc < len(self._static_targets) else -1
        predicted = self.targets.lookup(
            *key, exit_pc % self.config.geometry.line_size)
        if predicted != actual.exit_target:
            kind = target_misfetch_kind(exit_kind, direct)
            if kind is not None:
                stats.charge(kind, penalty_cycles_slot(scheme, slot, kind))

    def _train(self, pred: BlockPrediction, actual: ActualBlock,
               pht_base: int, ghr: GlobalHistory, key: tuple) -> None:
        """Train the PHT at ``pht_base``, the GHR, the RAS and targets."""
        pht = self.pht
        for offset, taken, pc in actual.conds:
            pht.update(pht_base, pht.position(pc), taken)
        if actual.conds:
            ghr.shift_in_block(actual.outcomes)
        if not actual.has_taken_exit:
            return
        exit_kind = actual.exit_kind
        exit_pc = actual.exit_pc
        if exit_kind == K_RETURN:
            self.ras.pop()
            return
        if exit_kind == K_CALL:
            self.ras.push(exit_pc + 1)
        near_exit = (pred.source == SRC_NEAR
                     and pred.exit_offset == actual.exit_offset)
        if not near_exit:
            self.targets.update(*key,
                                exit_pc % self.config.geometry.line_size,
                                actual.exit_target)
