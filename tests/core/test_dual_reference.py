"""The paper's hand-written dual-block loop, kept as the reference for
:class:`~repro.core.dual.DualBlockEngine`.

``DualBlockEngine`` is the N = 2 configuration of the grouped fetch loop
in :mod:`repro.core.multi`.  :class:`ReferenceDualEngine` is the
dual-only loop it replaced, with that loop's own state classes: a
double-selection table whose one entry holds both blocks' selections,
and a two-half NLS target array.  The tests run both over every
registered program, all three cache organisations, single and double
selection and NLS and BTB targets, under both engine modes, and compare
the stats, the delivery timeline and every piece of predictor state
(the pair entries mapped onto the per-slot select tables).  Each engine
runs the stream twice, so the second run starts from the state the
first left, including after a stream that ends on a lone anchor.
"""

from dataclasses import dataclass, replace
from typing import List, Optional

import pytest

from repro.core import (
    DOUBLE_SELECT,
    DualBlockEngine,
    EngineConfig,
    SINGLE_SELECT,
    TARGET_BTB,
)
from repro.core.config import FetchInput
from repro.core.engine_common import (
    BlockCursor,
    EARLY_TAKEN,
    K_CALL,
    K_HALT,
    K_RETURN,
    LATE_TAKEN,
    classify_divergence,
    target_misfetch_kind,
)
from repro.core.engine_mode import ENGINE_ENV
from repro.core.penalties import PenaltyKind, penalty_cycles
from repro.core.select_table import SelectEntry, SelectTable
from repro.core.selection import CodeWindowCache, SRC_NEAR, walk_block
from repro.core.stats import FetchStats
from repro.icache import CacheGeometry
from repro.icache.banks import blocks_conflict
from repro.predictors.blocked import BlockedPHT
from repro.predictors.ghr import GlobalHistory
from repro.qa.state import engine_state, target_state
from repro.targets.btb import DualBTBTargetArray
from repro.targets.nls import NLSTargetArray
from repro.targets.ras import ReturnAddressStack
from repro.workloads import load_fetch_input, workload_names

GEOMETRIES = {
    "normal": CacheGeometry.normal(8),
    "extend": CacheGeometry.extended(8),
    "align": CacheGeometry.self_aligned(8),
}

#: Small budgets; across the programs each geometry sees both an odd
#: block count (the stream ends on a lone anchor) and an even one.
BUDGETS = (1_500, 2_001)


# ----------------------------------------------------------------------
# The reference loop and its state classes
# ----------------------------------------------------------------------

@dataclass
class PairSelectEntry:
    """Double-selection entry: selections for both blocks of the next
    pair."""

    first: SelectEntry
    second: SelectEntry

    @classmethod
    def default(cls) -> "PairSelectEntry":
        return cls(SelectEntry.default(), SelectEntry.default())


class PairSelectTable:
    """Double-selection ST: one entry predicts both multiplexers."""

    def __init__(self, history_length: int, n_tables: int,
                 line_size: int) -> None:
        self._inner = SelectTable(history_length, n_tables, line_size)
        self._entries: List[Optional[PairSelectEntry]] = (
            [None] * (n_tables * self._inner.n_entries))

    def read(self, index: int, start_address: int) -> PairSelectEntry:
        entry = self._entries[self._inner._slot(index, start_address)]
        return entry if entry is not None else PairSelectEntry.default()

    def write(self, index: int, start_address: int,
              entry: PairSelectEntry) -> None:
        self._entries[self._inner._slot(index, start_address)] = entry


class HalvesNLSTargetArray:
    """Dual NLS target array: separate first- and second-target halves."""

    def __init__(self, n_block_entries: int, line_size: int) -> None:
        self.halves = (NLSTargetArray(n_block_entries, line_size),
                       NLSTargetArray(n_block_entries, line_size))

    def lookup(self, which: int, line: int, position: int) -> Optional[int]:
        return self.halves[which - 1].lookup(line, position)

    def update(self, which: int, line: int, position: int,
               target: int) -> None:
        self.halves[which - 1].update(line, position, target)


class ReferenceDualEngine:
    """Fetches two blocks per cycle: the paper's loop, written out for
    N = 2 only."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        geometry = config.geometry
        self.pht = BlockedPHT(config.history_length, geometry.block_width,
                              config.n_pht_tables)
        if config.target_kind == TARGET_BTB:
            self.targets = DualBTBTargetArray(config.target_entries,
                                              geometry.line_size,
                                              config.btb_associativity)
        else:
            self.targets = HalvesNLSTargetArray(config.target_entries,
                                                geometry.line_size)
        self.ras = ReturnAddressStack(config.ras_size)
        self.double = config.selection == DOUBLE_SELECT
        table = PairSelectTable if self.double else SelectTable
        self.select = table(config.history_length, config.n_select_tables,
                            geometry.line_size)

    def run(self, fetch_input: FetchInput) -> FetchStats:
        """Replay the block stream two blocks per cycle, recording the
        delivery timeline (b0 alone, then (b1,b2), (b3,b4), ...)."""
        config = self.config
        geometry = config.geometry
        codes = CodeWindowCache(fetch_input.static, geometry,
                                config.near_block)
        self._static_targets = fetch_input.static.direct_target
        cursor = BlockCursor(fetch_input.blocks)
        trace = fetch_input.trace
        ghr = GlobalHistory(config.history_length)
        pht = self.pht
        line_size = geometry.line_size
        scheme = DOUBLE_SELECT if self.double else SINGLE_SELECT
        n_blocks = cursor.n_blocks

        stats = FetchStats(
            n_blocks=n_blocks,
            n_instructions=trace.n_instructions,
            n_branches=trace.n_branches,
            n_cond=trace.n_cond,
            base_cycles=1 + (n_blocks - 1 + 1) // 2,
        )
        timeline = []
        carry = 0              # pair's first (odd) block, pending delivery
        flushed = 0            # penalty cycles already emitted as stalls

        def emit_delivery(delivered: int) -> None:
            nonlocal flushed
            timeline.extend([0] * (stats.penalty_cycles - flushed))
            flushed = stats.penalty_cycles
            timeline.append(delivered)

        for i in range(0, n_blocks, 2):
            even = cursor.block(i)
            limit = geometry.block_limit(even.start)
            anchor_line = even.start // line_size
            index = pht.index(ghr.value, even.start // geometry.block_width)
            window = codes.window(even.start, limit)
            walk_even = walk_block(window, even.start, limit, pht, index)

            if self.double:
                entry = self.select.read(index, even.start)
                self._verify_selection(entry.first, walk_even, stats,
                                       scheme, block_slot=1)

            self._analyze(walk_even, even, stats, scheme, block_slot=1,
                          which=1, anchor_line=anchor_line)
            self._train(walk_even, even, index, ghr, which=1,
                        anchor_line=anchor_line)

            # Block i completes the pair (i-1, i); b0 ships alone.
            emit_delivery(carry + even.n_instr)
            carry = 0

            if i + 1 >= n_blocks:
                break
            odd = cursor.block(i + 1)
            odd_limit = geometry.block_limit(odd.start)
            odd_index = pht.index(ghr.value,
                                  odd.start // geometry.block_width)
            odd_window = codes.window(odd.start, odd_limit)
            walk_odd = walk_block(odd_window, odd.start, odd_limit, pht,
                                  odd_index)

            if self.double:
                self._verify_selection(entry.second, walk_odd, stats,
                                       scheme, block_slot=2)
                self.select.write(index, even.start, PairSelectEntry(
                    SelectEntry(walk_even.selector, walk_even.ghr_payload),
                    SelectEntry(walk_odd.selector, walk_odd.ghr_payload)))
            else:
                stored = self.select.read(index, even.start)
                self._verify_selection(stored, walk_odd, stats, scheme,
                                       block_slot=2)
                self.select.write(index, even.start, SelectEntry(
                    walk_odd.selector, walk_odd.ghr_payload))

            self._analyze(walk_odd, odd, stats, scheme, block_slot=2,
                          which=2, anchor_line=anchor_line)
            self._train(walk_odd, odd, odd_index, ghr, which=2,
                        anchor_line=anchor_line)

            # Bank conflicts hit the pair fetched together: (i+1, i+2).
            if i + 2 < n_blocks:
                nxt = cursor.block(i + 2)
                first_lines = geometry.lines_for_block(odd.start,
                                                       odd.n_instr)
                second_lines = geometry.lines_for_block(nxt.start,
                                                        nxt.n_instr)
                if blocks_conflict(geometry, first_lines, second_lines):
                    stats.charge(PenaltyKind.BANK_CONFLICT, penalty_cycles(
                        scheme, 2, PenaltyKind.BANK_CONFLICT))

            carry = odd.n_instr

        if carry:
            emit_delivery(carry)  # trailing odd block ships alone
        timeline.extend([0] * (stats.penalty_cycles - flushed))
        stats.timeline = timeline
        return stats

    def _verify_selection(self, stored, walk, stats, scheme,
                          block_slot) -> None:
        if stored.selector != walk.selector:
            stats.charge(PenaltyKind.MISSELECT, penalty_cycles(
                scheme, block_slot, PenaltyKind.MISSELECT))
        elif stored.outcomes != walk.ghr_payload:
            stats.charge(PenaltyKind.GHR, penalty_cycles(
                scheme, block_slot, PenaltyKind.GHR))

    def _analyze(self, pred, actual, stats, scheme, block_slot, which,
                 anchor_line) -> None:
        if actual.exit_kind == K_HALT:
            return
        outcome, offset = classify_divergence(pred, actual)
        if outcome == EARLY_TAKEN or outcome == LATE_TAKEN:
            cycles = penalty_cycles(scheme, block_slot, PenaltyKind.COND)
            if block_slot == 2:
                cycles += 1  # "a misprediction on the second block always
                #               requires another cycle"
            elif outcome == EARLY_TAKEN and actual.n_instr - 1 - offset > 0:
                cycles += 1  # re-fetch the remaining valid instructions
            if outcome == LATE_TAKEN and \
                    not self.config.track_not_taken_targets:
                cycles += 1  # re-read the target array after resolution
            stats.charge(PenaltyKind.COND, cycles)
            return
        if not actual.has_taken_exit:
            return
        exit_kind = actual.exit_kind
        exit_pc = actual.exit_pc
        if exit_kind == K_RETURN:
            if self.ras.peek(0) != actual.exit_target:
                stats.charge(PenaltyKind.RETURN, penalty_cycles(
                    scheme, block_slot, PenaltyKind.RETURN))
            return
        if pred.source == SRC_NEAR:
            return
        direct = int(self._static_targets[exit_pc]) \
            if exit_pc < len(self._static_targets) else -1
        line_size = self.config.geometry.line_size
        predicted = self.targets.lookup(which, anchor_line,
                                        exit_pc % line_size)
        if predicted != actual.exit_target:
            kind = target_misfetch_kind(exit_kind, direct)
            if kind is not None:
                stats.charge(kind, penalty_cycles(scheme, block_slot, kind))

    def _train(self, pred, actual, pht_base, ghr, which,
               anchor_line) -> None:
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
            line_size = self.config.geometry.line_size
            self.targets.update(which, anchor_line, exit_pc % line_size,
                                actual.exit_target)


def reference_state(engine: ReferenceDualEngine) -> dict:
    """The reference's state in :func:`repro.qa.state.engine_state`'s
    layout: pair entries split onto per-slot tables, NLS halves as the
    per-slot arrays."""
    entries = engine.select._entries
    if engine.double:
        selects = [[None if e is None else e.first for e in entries],
                   [None if e is None else e.second for e in entries]]
    else:
        selects = [list(entries)]
    targets = engine.targets
    if isinstance(targets, HalvesNLSTargetArray):
        targets = [list(half._targets) for half in targets.halves]
    else:
        targets = target_state(targets)
    ras = engine.ras
    return {"pht": list(engine.pht._counters), "targets": targets,
            "ras": (list(ras._slots), ras._top, ras._depth),
            "selects": selects}


# ----------------------------------------------------------------------
# The comparison
# ----------------------------------------------------------------------

CONFIGS = {
    "single-nls": {},
    "double-nls": {"selection": DOUBLE_SELECT},
    "single-btb": {"target_kind": TARGET_BTB, "target_entries": 16,
                   "btb_associativity": 4},
    "double-btb": {"target_kind": TARGET_BTB, "target_entries": 16,
                   "btb_associativity": 2, "selection": DOUBLE_SELECT},
}


def _config(geometry, **kw) -> EngineConfig:
    return EngineConfig(geometry=geometry, **{
        "history_length": 8, "n_select_tables": 2, "target_entries": 64,
        **kw})


def assert_matches_reference(config, fetch_input, monkeypatch,
                             engine_factory=DualBlockEngine) -> None:
    """Two runs of one engine equal two runs of the reference, in both
    engine modes: stats, timeline (scalar only) and final state."""
    reference = ReferenceDualEngine(config)
    expected = [reference.run(fetch_input) for _ in range(2)]
    untimed = [replace(stats, timeline=None) for stats in expected]
    want = reference_state(reference)
    for mode in ("scalar", "fast"):
        monkeypatch.setenv(ENGINE_ENV, mode)
        engine = engine_factory(config)
        timed = mode == "scalar"  # a timeline forces the scalar loop
        got = [engine.run(fetch_input, record_timeline=timed),
               engine.run(fetch_input)]
        assert got[0].timeline == (expected[0].timeline if timed
                                   else None), mode
        assert [replace(stats, timeline=None) for stats in got] \
            == untimed, mode
        assert engine_state(engine) == want, mode


@pytest.mark.parametrize("geometry_name", sorted(GEOMETRIES))
@pytest.mark.parametrize("program", workload_names())
def test_dual_engine_matches_reference_loop(program, geometry_name,
                                            monkeypatch):
    geometry = GEOMETRIES[geometry_name]
    for budget in BUDGETS:
        fetch_input = load_fetch_input(program, geometry, budget)
        for kw in CONFIGS.values():
            assert_matches_reference(_config(geometry, **kw), fetch_input,
                                     monkeypatch)


def test_budgets_end_on_a_lone_anchor():
    """Each geometry's matrix holds streams of both block-count
    parities: an odd count ends on an anchor with no partner."""
    for geometry in GEOMETRIES.values():
        parities = {load_fetch_input(program, geometry, budget)
                    .blocks.n_blocks % 2
                    for program in workload_names() for budget in BUDGETS}
        assert parities == {0, 1}
