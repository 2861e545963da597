"""Unit tests for the vectorized fetch-engine kernels.

Each kernel is locked against the scalar structure it compiles away:
the selector encoding against ``BlockPrediction`` equality, the write
scan and the read/write counter scan against saturating-counter
replay (and its own-write reads against the all-search path), the true
and the stale BIT read lists against a dense reference window
(:func:`read_list_from_window`; the stale window from a slot-by-slot
table replay), the list walk against ``walk_block``, bank conflicts of
pairs against ``blocks_conflict``, the LRU residency kernel against an
``OrderedDict`` set, and both
near-block views of the compiled arrays (one shared, read-only base,
one persisted artifact) against a fresh compile.  The keyed last-write
replay is locked in ``tests/core/test_backends.py``.
"""

import dataclasses
from collections import OrderedDict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DualBlockEngine, EngineConfig, SingleBlockEngine
from repro.core import kernels
from repro.core.config import FetchInput
from repro.core.engine_mode import ENGINE_ENV
from repro.core.fast import _replay_targets
from repro.core.kernels import (
    CODE_COND_LONG,
    CODE_NONBRANCH,
    CODE_OTHER,
    CODE_RETURN,
    ARTIFACT_DTYPES,
    DERIVED_ON_LOAD,
    CompiledBlocks,
    ReadList,
    ReadRows,
    _compile,
    bank_conflicts,
    compile_fetch_input,
    decode_selector,
    encode_selector,
    lru_resident,
    read_rows,
    scan_counters,
    scan_writes,
    stale_bit_windows,
    walk_reads,
)
from repro.core.selection import (
    SRC_ARRAY,
    SRC_FALLTHROUGH,
    SRC_NEAR,
    SRC_RAS,
    walk_block,
)
from repro.cpu import Machine
from repro.experiments.fig7 import DEFAULT_SIZES as FIG7_SIZES
from repro.icache import CacheGeometry
from repro.icache.banks import blocks_conflict
from repro.isa import Assembler
from repro.predictors.counters import COUNTER_MAX, counter_update
from repro.qa.state import engine_state
from repro.runtime import cache as disk_cache
from repro.targets.btb import BlockBTB
from repro.workloads import SPEC95, load_fetch_input
from repro.workloads import registry

BUDGET = 5_000

GEOMETRIES = [CacheGeometry.normal(8), CacheGeometry.extended(8),
              CacheGeometry.self_aligned(8)]


# ----------------------------------------------------------------------
# Selector encoding
# ----------------------------------------------------------------------

def test_selector_roundtrip_is_injective():
    width = 8
    seen = {}
    for src in (SRC_FALLTHROUGH, SRC_RAS, SRC_ARRAY, SRC_NEAR):
        for off in (None, *range(width)):
            for near in (None, 4, 5, 6, 7):
                sel = encode_selector(width, src, off, near)
                assert decode_selector(width, sel) == (src, off, near)
                assert sel not in seen, (seen[sel], (src, off, near))
                seen[sel] = (src, off, near)


def test_cold_selector_encodes_to_zero():
    # The kernels seed unwritten select-table slots with all-zero
    # integers; that must decode to the scalar tables' cold entry
    # (fall-through selector, empty outcomes) for warm-state parity.
    from repro.core.select_table import SelectEntry

    cold = SelectEntry.default()
    src, off, near = cold.selector
    assert encode_selector(8, src, off, near) == 0
    assert decode_selector(8, 0) == cold.selector


# ----------------------------------------------------------------------
# Counter scan
# ----------------------------------------------------------------------

def _check_scan_writes(counters, slots, taken):
    """``scan_writes`` against ``counter_update`` applied in stream order."""
    scan = scan_writes(np.array(counters, dtype=np.int64),
                       np.array(slots, dtype=np.int64),
                       np.array(taken, dtype=bool))
    state = dict(enumerate(counters))
    before, after = [], []
    for slot, outcome in zip(slots, taken):
        before.append(state[slot])
        state[slot] = counter_update(state[slot], outcome)
        after.append(state[slot])
    # Grouped order: slots ascending, stream order inside each slot.
    grouped = sorted(range(len(slots)), key=lambda i: (slots[i], i))
    assert scan.order.tolist() == grouped
    assert scan.before.tolist() == [before[i] for i in grouped]
    assert scan.after.tolist() == [after[i] for i in grouped]


def test_scan_writes_matches_counter_update():
    # Every warm start state against all-taken, all-not-taken and mixed
    # slots of 1-6 writes: single-outcome slots take the closed form and
    # cross both saturation bounds, mixed ones go through the scan.
    cases = []
    for start in range(COUNTER_MAX + 1):
        for length in range(1, 7):
            half = (length + 1) // 2
            cases += [(start, [True] * length), (start, [False] * length)]
            if length > 1:
                cases += [(start, [True] * half + [False] * (length - half)),
                          (start, [False] * half + [True] * (length - half))]
    for start, outcomes in cases:
        _check_scan_writes([start], [0] * len(outcomes), outcomes)
    # All cases at once, one slot each, writes interleaved round-robin.
    counters = [start for start, _ in cases]
    stream = sorted((step, slot, taken)
                    for slot, (_, outcomes) in enumerate(cases)
                    for step, taken in enumerate(outcomes))
    _check_scan_writes(counters, [slot for _, slot, _ in stream],
                       [taken for _, _, taken in stream])
    # A random multi-slot stream over a random warm table.
    rng = np.random.default_rng(5)
    counters = rng.integers(0, COUNTER_MAX + 1, size=30).tolist()
    slots = rng.integers(0, 30, size=1_500).tolist()
    taken = (rng.random(1_500) < rng.choice([0.0, 0.5, 0.9, 1.0],
                                            size=30)[slots]).tolist()
    _check_scan_writes(counters, slots, taken)


def _scalar_counter_replay(counters, reads, writes):
    """Replay (block-ordered, reads-before-writes) on plain ints."""
    state = dict(enumerate(counters))
    events = ([(blk * 2, "r", i, slot, False)
               for i, (blk, slot) in enumerate(reads)]
              + [(blk * 2 + 1, "w", i, slot, taken)
                 for i, (blk, slot, taken) in enumerate(writes)])
    events.sort(key=lambda e: e[0])
    out = [None] * len(reads)
    for _, kind, i, slot, taken in events:
        if kind == "r":
            out[i] = state[slot] >= 2
        elif taken:
            state[slot] = min(3, state[slot] + 1)
        else:
            state[slot] = max(0, state[slot] - 1)
    return out, state


def test_scan_counters_matches_scalar_replay():
    rng = np.random.default_rng(7)
    n_slots, n_blocks = 40, 300
    counters = rng.integers(0, 4, size=n_slots).astype(np.int64)
    read_blocks = np.sort(rng.integers(0, n_blocks, size=500))
    read_slots = rng.integers(0, n_slots, size=500)
    write_blocks = np.sort(rng.integers(0, n_blocks, size=400))
    write_slots = rng.integers(0, n_slots, size=400)
    write_taken = rng.random(size=400) < 0.6

    taken, final_slots, final_states = scan_counters(
        counters, read_blocks.astype(np.int64),
        read_slots.astype(np.int64), write_blocks.astype(np.int64),
        write_slots.astype(np.int64), write_taken)

    expect_reads, expect_state = _scalar_counter_replay(
        counters,
        list(zip(read_blocks.tolist(), read_slots.tolist())),
        list(zip(write_blocks.tolist(), write_slots.tolist(),
                 write_taken.tolist())))
    assert taken.tolist() == expect_reads
    for slot, state in zip(final_slots.tolist(), final_states.tolist()):
        assert expect_state[slot] == state


def _own_write_stream(rng, n_slots, n_blocks, n_writes, n_reads):
    """A random block-ordered stream plus an own-write map for its reads.

    Each write that is the first of its block to its slot gets a read at
    the same (block, slot) with probability 1/2, mapped to that write;
    further random reads are left to the search (``-1``).
    """
    write_blocks = np.sort(rng.integers(0, n_blocks, size=n_writes))
    write_slots = rng.integers(0, n_slots, size=n_writes)
    write_taken = rng.random(size=n_writes) < rng.random()
    firsts = {}
    for i, key in enumerate(zip(write_blocks.tolist(),
                                write_slots.tolist())):
        firsts.setdefault(key, i)
    own = [i for i in firsts.values() if rng.random() < 0.5]
    reads = [(int(write_blocks[i]), int(write_slots[i]), i) for i in own]
    reads += [(int(b), int(s), -1) for b, s in zip(
        rng.integers(0, n_blocks, size=n_reads),
        rng.integers(0, n_slots, size=n_reads))]
    reads.sort(key=lambda read: read[0])
    blocks, slots, read_write = (np.array(col, dtype=np.int64)
                                 for col in zip(*reads))
    return (blocks, slots, write_blocks.astype(np.int64),
            write_slots.astype(np.int64), write_taken, read_write)


@pytest.mark.parametrize("seed", range(6))
def test_scan_counters_own_writes_match_search(seed):
    """A read mapped to its own block's write to its slot observes the
    state that write found: the same prediction as the binary search."""
    rng = np.random.default_rng(seed)
    n_slots = int(rng.integers(1, 60))
    counters = rng.integers(0, COUNTER_MAX + 1, size=n_slots).astype(
        np.int64)
    read_blocks, read_slots, write_blocks, write_slots, write_taken, \
        read_write = _own_write_stream(rng, n_slots, 200, 600, 150)
    assert (read_write >= 0).any() and (read_write < 0).any()
    searched = scan_counters(counters, read_blocks, read_slots,
                             write_blocks, write_slots, write_taken)
    mapped = scan_counters(counters, read_blocks, read_slots,
                           write_blocks, write_slots, write_taken,
                           read_write)
    for got, expect in zip(mapped, searched):
        assert np.array_equal(got, expect)
    expect_reads, _ = _scalar_counter_replay(
        counters, list(zip(read_blocks.tolist(), read_slots.tolist())),
        list(zip(write_blocks.tolist(), write_slots.tolist(),
                 write_taken.tolist())))
    assert mapped[0].tolist() == expect_reads


#: Offset that lifts int32 block indices past 2**30, so ``2 * block``
#: and the packed ``slot * stride`` keys overflow int32.
WIDE_BLOCK = 1 << 30


@pytest.mark.parametrize("seed", range(3))
def test_scan_counters_pack_wide_keys_from_int32_operands(seed):
    """int32 block and slot operands (the compiled arrays' width) whose
    packed search keys pass 2**31 resolve exactly like a plain Python
    replay, on the own-write and on the search path."""
    rng = np.random.default_rng(seed)
    n_slots = 50
    counters = rng.integers(0, COUNTER_MAX + 1, size=n_slots).astype(
        np.int64)
    read_blocks, read_slots, write_blocks, write_slots, write_taken, \
        read_write = _own_write_stream(rng, n_slots, 200, 600, 150)
    read_blocks = (read_blocks + WIDE_BLOCK).astype(np.int32)
    write_blocks = (write_blocks + WIDE_BLOCK).astype(np.int32)
    read_slots = read_slots.astype(np.int32)
    write_slots = write_slots.astype(np.int32)
    stride = 2 * (int(max(read_blocks.max(), write_blocks.max())) + 1)
    assert int(read_slots.max()) * stride >= 1 << 31
    expect_reads, expect_state = _scalar_counter_replay(
        counters, list(zip(read_blocks.tolist(), read_slots.tolist())),
        list(zip(write_blocks.tolist(), write_slots.tolist(),
                 write_taken.tolist())))
    for mapping in (None, read_write.astype(np.int32)):
        taken, final_slots, final_states = scan_counters(
            counters, read_blocks, read_slots, write_blocks, write_slots,
            write_taken, mapping)
        assert taken.tolist() == expect_reads
        assert {slot: expect_state[slot] for slot in final_slots.tolist()} \
            == dict(zip(final_slots.tolist(), final_states.tolist()))


def _btb_contents(btb):
    return [[(tag, list(entry.targets)) for tag, entry in bucket.items()]
            for bucket in btb._sets]


@pytest.mark.parametrize("dual", [False, True], ids=["single", "dual"])
def test_btb_replay_packs_wide_keys_from_int32_operands(dual):
    """The keyed BTB replay over int32 line, position and target
    operands whose ``2 * line + which`` keys pass 2**31 observes and
    leaves exactly what event-by-event ``BlockBTB`` calls do, cold and
    then warm."""
    rng = np.random.default_rng(3)
    fast_btb = BlockBTB(16, 8, 4, dual=dual)
    slow_btb = BlockBTB(16, 8, 4, dual=dual)
    for _ in range(2):
        m = 400
        which = rng.integers(0, 2 if dual else 1, size=m).astype(np.int64)
        lines = (WIDE_BLOCK + rng.integers(0, 24, size=m)).astype(np.int32)
        positions = rng.integers(0, 8, size=m).astype(np.int32)
        values = rng.integers(0, 1 << 20, size=m).astype(np.int32)
        assert 2 * int(lines.max()) >= 1 << 31
        observed = _replay_targets(fast_btb, which, lines, positions,
                                   values)
        expect = []
        for w, line, pos, value in zip(which.tolist(), lines.tolist(),
                                       positions.tolist(), values.tolist()):
            target = slow_btb.lookup(line, pos, w + 1)
            expect.append(-1 if target is None else target)
            slow_btb.update(line, pos, value, w + 1)
        assert observed.tolist() == expect
        assert _btb_contents(fast_btb) == _btb_contents(slow_btb)


def test_scan_counters_empty():
    taken, slots, states = scan_counters(
        np.zeros(4, dtype=np.int64), *[np.zeros(0, dtype=np.int64)] * 4,
        np.zeros(0, dtype=bool))
    assert len(taken) == 0 and len(slots) == 0 and len(states) == 0


# ----------------------------------------------------------------------
# Batched walks
# ----------------------------------------------------------------------

class _MatrixPHT:
    """Fake blocked PHT answering from a boolean prediction matrix."""

    def __init__(self, width, row_preds):
        self.block_width = width
        self._preds = row_preds

    def position(self, pc):
        return pc % self.block_width

    def predicts_taken(self, base, position):
        return bool(self._preds[position])


def _random_window(rng, n, width):
    """Random BIT codes, half of them plain, so every walk path occurs."""
    window = rng.integers(0, 8, size=(n, width)).astype(np.uint8)
    window[rng.random(window.shape) < 0.5] = CODE_NONBRANCH
    return window


def test_resolve_walks_matches_walk_block():
    """The list walk equals ``walk_block`` over each dense window row."""
    rng = np.random.default_rng(11)
    width = 8
    window = _random_window(rng, 200, width)
    pred_mat = rng.random(window.shape) < 0.5

    reads = read_list_from_window(window)
    walks = walk_reads(reads, width, pred_mat[reads.block, reads.col])
    for b in range(len(window)):
        pht = _MatrixPHT(width, pred_mat[b])
        scalar = walk_block([int(c) for c in window[b]], 0, width, pht, 0)
        off = None if walks.exit_off[b] < 0 else int(walks.exit_off[b])
        near = None if walks.near[b] < 0 else int(walks.near[b])
        assert (scalar.exit_offset, scalar.source) == (off,
                                                       int(walks.src[b]))
        assert (scalar.near_code is None) == (near is None)
        if near is not None:
            assert int(scalar.near_code) == near
        n_nt = sum(1 for o in scalar.outcomes if not o)
        ends = bool(scalar.outcomes) and scalar.outcomes[-1]
        assert n_nt == int(walks.n_not_taken[b])
        assert ends == bool(walks.ends_taken[b])
        assert int(walks.sel[b]) == encode_selector(
            width, scalar.source, scalar.exit_offset,
            None if scalar.near_code is None else int(scalar.near_code))
        assert int(walks.pay[b]) == n_nt * 2 + ends


# ----------------------------------------------------------------------
# Read lists
# ----------------------------------------------------------------------

def read_list_from_window(window):
    """Reference :class:`ReadList` of a dense ``uint8[n, W]`` window
    matrix: each row's conditionals before its first RETURN/OTHER."""
    n, width = window.shape
    other = (window == CODE_RETURN) | (window == CODE_OTHER)
    has_stop = other.any(axis=1)
    first_other = np.argmax(other, axis=1)
    stop_col = np.where(has_stop, first_other, np.int64(width))
    cols = np.arange(width, dtype=np.int64)
    cond = (window >= CODE_COND_LONG) & (cols[None, :] < stop_col[:, None])
    block, col = np.nonzero(cond)
    stop_code = np.where(
        has_stop, window[np.arange(n, dtype=np.int64), first_other],
        np.uint8(CODE_NONBRANCH))
    n_before = np.count_nonzero(cond, axis=1)
    row_first = np.zeros(n, dtype=np.int64)
    np.cumsum(n_before[:-1], out=row_first[1:])
    narrow = np.min_scalar_type(width)
    return ReadList(
        block=block.astype(np.int32), col=col.astype(narrow),
        code=window[block, col].astype(np.uint8, copy=False),
        rank=(np.arange(len(block)) - row_first[block]).astype(narrow),
        stop_col=stop_col.astype(narrow),
        stop_code=stop_code.astype(np.uint8),
        n_before=n_before.astype(narrow))


def _assert_same_reads(got, expect):
    """A :class:`ReadList` or :class:`ReadRows` matches field by field
    (memos aside), arrays in value and dtype."""
    for field in dataclasses.fields(expect):
        if not field.init:
            continue
        a = getattr(got, field.name)
        b = getattr(expect, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def _dense_window(compiled, width):
    """Each block's true BIT codes, non-branch past the geometry limit."""
    coa = compiled.code_of_addr
    cols = np.arange(width, dtype=np.int64)
    addrs = compiled.start[:, None] + cols[None, :]
    window = np.zeros(addrs.shape, dtype=np.uint8)
    in_text = addrs < len(coa)
    window[in_text] = coa[addrs[in_text]]
    window[cols[None, :] >= compiled.limit[:, None]] = CODE_NONBRANCH
    return window


def test_read_list_constructors_agree_on_random_windows():
    """Codes laid out one block per row give the dense matrix's list,
    under full and cut-short geometry limits."""
    rng = np.random.default_rng(3)
    width = 8
    window = _random_window(rng, 300, width)
    limit = rng.integers(1, width + 1, size=300).astype(np.int64)
    window[np.arange(width)[None, :] >= limit[:, None]] = CODE_NONBRANCH
    start = np.arange(300, dtype=np.int64) * width
    codes = window.ravel()
    _assert_same_reads(read_rows(codes, start, limit, width).reads(codes,
                                                                   start),
                       read_list_from_window(window))


@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["normal", "extend", "align"])
@pytest.mark.parametrize("name", SPEC95)
def test_read_list_constructors_agree(name, geometry):
    """The list a view builds from ``code_of_addr`` equals the one the
    dense window matrix gives, for both near-block flags."""
    fetch_input = load_fetch_input(name, geometry, BUDGET)
    for flag in (False, True):
        compiled = compile_fetch_input(fetch_input, flag)
        window = _dense_window(compiled, geometry.block_width)
        _assert_same_reads(compiled.reads, read_list_from_window(window))


def _replay_bit_table(compiled, line_size, table):
    """Replay the tag-less BIT table over every block, as
    ``SingleBlockEngine`` does: read the block's first and last lines,
    then fill them.  ``table`` holds each slot's line (-1 never
    written) and ends in the run's final state.  Returns, per block and
    per line, the line the read found and whether that line was stored
    before the run (seeded), plus the access and stale-hit counts."""
    n_entries = len(table)
    seeded = [True] * n_entries
    found = {0: [], 1: []}
    from_init = {0: [], 1: []}
    accesses = stale_hits = 0
    for start, limit in zip(compiled.start.tolist(),
                            compiled.limit.tolist()):
        lines = (start // line_size, (start + limit - 1) // line_size)
        for part, line in enumerate(lines):
            if part and line == lines[0]:
                found[1].append(-1)
                from_init[1].append(False)
                continue
            slot = line % n_entries
            accesses += 1
            stale_hits += table[slot] not in (-1, line)
            found[part].append(table[slot])
            from_init[part].append(seeded[slot])
        for line in sorted(set(lines)):
            table[line % n_entries] = line
            seeded[line % n_entries] = False
    return ({part: np.array(found[part], dtype=np.int64)
             for part in found},
            {part: np.array(from_init[part]) for part in from_init},
            accesses, stale_hits)


def _line_codes(compiled, lines, line_size):
    """``uint8[len(lines), line_size]`` true codes of whole lines."""
    coa = compiled.code_of_addr
    addrs = np.asarray(lines, dtype=np.int64)[:, None] * line_size \
        + np.arange(line_size)
    codes = np.zeros(addrs.shape, dtype=np.uint8)
    in_text = addrs < len(coa)
    codes[in_text] = coa[addrs[in_text]]
    return codes


def _dense_stale_window(compiled, line_size, width, found, from_init,
                        init_codes):
    """Each block's BIT codes as the tag-less table supplies them: the
    found line's codes at the block's offsets, the seeded codes where
    the found line predates the run, non-branch where the slot was
    never written, past the text segment and past the geometry
    limit."""
    start = compiled.start.astype(np.int64)[:, None]
    limit = compiled.limit.astype(np.int64)[:, None]
    cols = np.arange(width, dtype=np.int64)[None, :]
    later = cols >= np.minimum(limit, line_size - start % line_size)
    stored = np.where(later, found[1][:, None], found[0][:, None])
    seeded = np.where(later, from_init[1][:, None], from_init[0][:, None])
    line, offset = np.divmod(start + cols, line_size)
    inside = (cols < limit) & (stored >= 0)
    addr = stored * line_size + offset
    coa = compiled.code_of_addr
    window = np.zeros(stored.shape, dtype=np.uint8)
    own = inside & ~seeded & (addr < len(coa))
    window[own] = coa[addr[own]]
    old = inside & seeded
    window[old] = init_codes[line[old] % len(init_codes), offset[old]]
    return window


def _check_stale_reads(compiled, line_size, width, init_lines,
                       init_codes):
    """``stale_bit_windows`` against a slot-by-slot table replay: its
    reads against the dense stale window's, its access and stale-hit
    counts, and the final table."""
    table = init_lines.tolist()
    found, from_init, accesses, stale_hits = _replay_bit_table(
        compiled, line_size, table)
    window = _dense_stale_window(compiled, line_size, width, found,
                                 from_init, init_codes)
    got = stale_bit_windows(compiled, line_size, len(init_lines), width,
                            init_lines, init_codes)
    _assert_same_reads(got.reads, read_list_from_window(window))
    assert (got.accesses, got.stale_hits) == (accesses, stale_hits)
    final = init_lines.copy()
    final[got.final_slots] = got.final_lines
    assert final.tolist() == table


@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["normal", "extend", "align"])
@pytest.mark.parametrize("name", SPEC95)
def test_stale_reads_match_dense_window(name, geometry):
    """The stale BIT read list equals the dense stale window's, at
    every Figure 7 table size, on a cold table and on one seeded from
    another analog's run (whose stored codes are that program's); the
    access and stale-hit counts and the final table agree too.  Only
    the self-aligned geometry has blocks over two lines."""
    other = SPEC95[(SPEC95.index(name) + 1) % len(SPEC95)]
    line_size = geometry.line_size
    width = geometry.block_width
    compiled = compile_fetch_input(
        load_fetch_input(name, geometry, BUDGET), True)
    seed = compile_fetch_input(load_fetch_input(other, geometry, BUDGET),
                               False)
    for n_entries in FIG7_SIZES:
        seed_lines = [-1] * n_entries
        _replay_bit_table(seed, line_size, seed_lines)
        seeds = {"cold": np.full(n_entries, -1, dtype=np.int64),
                 "seeded": np.array(seed_lines, dtype=np.int64)}
        for init_lines in seeds.values():
            _check_stale_reads(compiled, line_size, width, init_lines,
                               _line_codes(seed, np.maximum(init_lines, 0),
                                           line_size))


def test_stale_line_past_the_text_segment_reads_non_branches():
    """A stored line that starts past the end of the text segment reads
    as non-branches, not as the seeded codes stored after the text."""
    line_size = width = 8
    # Block 0 spans lines 1 and 2 (line 2 starts past the 11-instruction
    # text); block 1 then reads line 0, which shares line 2's slot.
    start = np.array([9, 0, 9, 0], dtype=np.int32)
    compiled = SimpleNamespace(
        n_blocks=len(start), start=start,
        limit=np.full(len(start), width, dtype=np.int8),
        line0=start // line_size,
        code_of_addr=np.full(11, CODE_COND_LONG, dtype=np.uint8))
    for n_entries in (1, 2):
        _check_stale_reads(
            compiled, line_size, width,
            np.arange(n_entries, dtype=np.int64) + 5,
            np.full((n_entries, line_size), CODE_COND_LONG, dtype=np.uint8))


@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["normal", "extend", "align"])
@pytest.mark.parametrize("name", SPEC95)
def test_own_write_reads_share_block_and_position(name, geometry):
    """Every read the engines resolve from a write (ranked below its
    block's conditional count) lies inside the block's instructions and
    names a write of the same block at the same window position."""
    fetch_input = load_fetch_input(name, geometry, BUDGET)
    width = geometry.block_width
    for flag in (False, True):
        compiled = compile_fetch_input(fetch_input, flag)
        reads = compiled.reads
        rb = reads.block
        own = reads.rank < compiled.n_conds[rb]
        assert np.all(reads.col[own] < compiled.n_instr[rb[own]])
        write = (compiled.conds_before[rb] + reads.rank)[own]
        assert np.array_equal(compiled.cond_block[write], rb[own])
        assert np.array_equal(
            compiled.cond_pos[write],
            (compiled.start[rb[own]] + reads.col[own]) % width)


def _truncated_mid_block_input(geometry):
    """A run cut by its budget just before a conditional executes."""
    asm = Assembler()
    asm.li("r3", 0)
    asm.li("r4", 1000)
    asm.label("top")
    for _ in range(5):
        asm.addi("r3", "r3", 1)
    asm.blt("r3", "r4", "top")  # address 7
    asm.halt()
    program = asm.assemble()
    trace = Machine(program).run(max_instructions=2 + 6 * 16 + 5).trace
    assert trace.truncated and int(trace.pc[-1]) == 7
    return FetchInput.from_trace(trace, program.static_code(), geometry)


@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["normal", "extend", "align"])
def test_truncated_tail_block_reads_search(geometry, monkeypatch):
    """The synthesised HALT sits on a static conditional inside the tail
    block's instructions, but no record trains it: the rank guard sends
    that read to the search, and the fast engines match the scalar."""
    fetch_input = _truncated_mid_block_input(geometry)
    compiled = compile_fetch_input(fetch_input, near_block=False)
    reads = compiled.reads
    tail = compiled.n_blocks - 1
    in_tail = np.flatnonzero(reads.block == tail)
    tail_read = in_tail[(compiled.start[tail] + reads.col[in_tail]) == 7]
    assert len(tail_read) == 1
    assert reads.col[tail_read] < compiled.n_instr[tail]
    assert reads.rank[tail_read] >= compiled.n_conds[tail]
    for factory in (SingleBlockEngine, DualBlockEngine):
        out = []
        for mode in ("scalar", "fast"):
            monkeypatch.setenv(ENGINE_ENV, mode)
            engine = factory(EngineConfig(geometry=geometry))
            stats = [engine.run(fetch_input) for _ in range(2)]
            out.append((stats, engine_state(engine)))
        assert out[0] == out[1]


# ----------------------------------------------------------------------
# Bank conflicts of pairs (N=2)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["normal", "extend", "align"])
def test_pair_conflicts_matches_blocks_conflict(geometry):
    """At N=2 the kernel is ``blocks_conflict`` of each fetched pair.

    Group ``a`` fetches blocks ``(2a+1, 2a+2)``; prepending a copy of
    block 0 shifts the grouping by one, so the two calls together cover
    every consecutive pair ``(j, j+1)``.
    """
    fetch_input = load_fetch_input("go", geometry, BUDGET)
    compiled = compile_fetch_input(fetch_input, near_block=False)
    line0 = compiled.line0
    odd = bank_conflicts(line0, 2, geometry)
    even = bank_conflicts(np.concatenate([line0[:1], line0]), 2, geometry)
    assert not odd[:, 0].any() and not even[:, 0].any()
    blocks = fetch_input.blocks
    for j in range(blocks.n_blocks - 1):
        expect = blocks_conflict(
            geometry,
            geometry.lines_for_block(int(blocks.start[j]),
                                     int(blocks.n_instr[j])),
            geometry.lines_for_block(int(blocks.start[j + 1]),
                                     int(blocks.n_instr[j + 1])))
        fast = odd[j // 2, 1] if j % 2 else even[j // 2, 1]
        assert bool(fast) == expect, f"pair {j}"


# ----------------------------------------------------------------------
# Compilation cache
# ----------------------------------------------------------------------

def test_compile_is_memoised_per_input():
    geometry = CacheGeometry.normal(8)
    fetch_input = load_fetch_input("compress", geometry, BUDGET)
    a = compile_fetch_input(fetch_input, near_block=False)
    b = compile_fetch_input(fetch_input, near_block=False)
    assert a is b
    near = compile_fetch_input(fetch_input, near_block=True)
    assert near is not a


#: Every near-block-independent field: shared by both flags' views.
BASE_FIELDS = [field.name for field in dataclasses.fields(CompiledBlocks)
               if field.name not in ("near_block", "n_blocks", "reads",
                                     "rows", "code_of_addr")]


def _fresh(fetch_input):
    """A memo-free copy of ``fetch_input``: compiles its base afresh."""
    return FetchInput(trace=fetch_input.trace, static=fetch_input.static,
                      geometry=fetch_input.geometry,
                      blocks=fetch_input.blocks)


def _segmented(fetch_input):
    """``fetch_input`` segmented afresh from its trace, memo-free."""
    return FetchInput.from_trace(fetch_input.trace, fetch_input.static,
                                 fetch_input.geometry)


def _reload(name, geometry, budget=BUDGET):
    """``load_fetch_input`` as a new process sees it: the trace from
    memory, everything else read back from the derived artifact."""
    registry._fetch_inputs.pop((name, budget, geometry), None)
    return load_fetch_input(name, geometry, budget)


def _forbid_recompile(monkeypatch):
    """Make a fetch input that misses the disk cache fail the test."""
    def no_recompile(*args):
        raise AssertionError("warm input was recomputed")
    monkeypatch.setattr(kernels, "_stored_arrays", no_recompile)
    monkeypatch.setattr(kernels, "read_rows", no_recompile)
    monkeypatch.setattr(registry, "segment_blocks", no_recompile)


def _derived_files(root):
    return sorted((root / "compiled").glob("*.npyrec"))


@pytest.mark.parametrize("order", [(False, True), (True, False)],
                         ids=["far-first", "near-first"])
@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["normal", "extend", "align"])
def test_views_match_fresh_compile(geometry, order, tmp_path, monkeypatch):
    """Both views equal a fresh ``_compile``, cold (segmented, compiled
    and stored) and warm (everything read back from the one artifact)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    source = _reload("go", geometry)
    expect = {flag: _compile(_segmented(source), flag)
              for flag in (False, True)}
    for phase in ("cold", "warm"):
        if phase == "warm":
            _forbid_recompile(monkeypatch)
            fetch_input = _reload("go", geometry)
            assert fetch_input is not source
        else:
            fetch_input = source
        for flag in order:
            compiled = compile_fetch_input(fetch_input, flag)
            assert compiled.near_block is flag
            _assert_same_compiled(compiled, expect[flag])
        artifact, = _derived_files(tmp_path)
        assert artifact.name.endswith(disk_cache.DERIVED_SUFFIX)
    monkeypatch.undo()
    registry._fetch_inputs.pop(("go", BUDGET, geometry))


@pytest.mark.parametrize("phase", ["cold", "warm"])
def test_views_share_every_base_array(phase, tmp_path, monkeypatch):
    """Only the code map and the read codes are per flag: the base and
    every other read-list array are shared, and the base aliases the
    block stream's arrays instead of copying them."""
    assert len(BASE_FIELDS) == 16
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    geometry = CacheGeometry.normal(8)
    fetch_input = _reload("compress", geometry)
    if phase == "warm":
        _forbid_recompile(monkeypatch)
        fetch_input = _reload("compress", geometry)
    far = compile_fetch_input(fetch_input, near_block=False)
    near = compile_fetch_input(fetch_input, near_block=True)
    for field in BASE_FIELDS:
        assert np.shares_memory(getattr(far, field), getattr(near, field)), \
            field
    assert far.rows is near.rows
    for field in dataclasses.fields(ReadList):
        shared = np.shares_memory(getattr(far.reads, field.name),
                                  getattr(near.reads, field.name))
        assert shared == (field.name != "code"), field.name
    for field in ("start", "n_instr", "exit_kind", "exit_target"):
        assert np.shares_memory(getattr(far, field),
                                getattr(fetch_input.blocks, field)), field
    monkeypatch.undo()
    registry._fetch_inputs.pop(("compress", BUDGET, geometry))


def test_read_slots_are_memoised_on_first_resolve(monkeypatch):
    """The read->write map and counter offsets are built by the first
    resolve of an input, not at setup, and serve both flags' runs."""
    monkeypatch.setenv(ENGINE_ENV, "fast")
    geometry = CacheGeometry.normal(8)
    fetch_input = _fresh(load_fetch_input("compress", geometry, BUDGET))
    far = compile_fetch_input(fetch_input, near_block=False)
    near = compile_fetch_input(fetch_input, near_block=True)
    assert far.rows._slots is None
    SingleBlockEngine(EngineConfig(geometry=geometry,
                                   near_block=True)).run(fetch_input)
    slots = near.rows._slots
    assert slots is not None
    write, offset = slots
    reads = far.reads
    own = reads.rank < far.n_conds[reads.block]
    assert np.array_equal(write[own],
                          far.conds_before[reads.block[own]]
                          + reads.rank[own])
    assert (write[~own] == -1).all()
    assert np.array_equal(offset, (far.start[reads.block] + reads.col) % 8)
    DualBlockEngine(EngineConfig(geometry=geometry)).run(fetch_input)
    assert far.rows._slots is slots
    assert not write.flags.writeable and not offset.flags.writeable


def test_base_arrays_are_read_only():
    """A write through one view cannot corrupt the other flag's cells."""
    fetch_input = load_fetch_input("compress", CacheGeometry.normal(8),
                                   BUDGET)
    compiled = compile_fetch_input(fetch_input, near_block=True)
    for field in BASE_FIELDS:
        array = getattr(compiled, field)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    assert compile_fetch_input(fetch_input, False).reads.code.flags.writeable


def test_compiled_arrays_roundtrip_through_disk_cache(tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    geometry = CacheGeometry.extended(8)
    fetch_input = _reload("li", geometry)
    expect = {flag: _compile(_segmented(fetch_input), flag)
              for flag in (False, True)}
    path, = _derived_files(tmp_path)
    data = disk_cache.read_records(path.read_bytes())
    # One artifact for both flags: no read codes, nothing one pass over
    # the stored arrays rebuilds.
    assert set(data) == {"n_records", *ARTIFACT_DTYPES}
    assert not set(data) & {*DERIVED_ON_LOAD, "code", "act_exit"}
    # Stored narrow.
    assert data["start"].dtype == np.uint16
    assert data["exit_direct"].dtype == np.int16
    _forbid_recompile(monkeypatch)
    warm = _reload("li", geometry)
    for flag in (False, True):
        _assert_same_compiled(compile_fetch_input(warm, flag), expect[flag])
    monkeypatch.undo()
    registry._fetch_inputs.pop(("li", BUDGET, geometry))


def _assert_same_compiled(loaded, compiled):
    """Every field matches in value and, for arrays, in dtype."""
    for field in vars(compiled):
        original = getattr(compiled, field)
        restored = getattr(loaded, field)
        if isinstance(original, (ReadList, ReadRows)):
            _assert_same_reads(restored, original)
        elif isinstance(original, np.ndarray):
            assert restored.dtype == original.dtype, field
            assert np.array_equal(original, restored), field
        else:
            assert original == restored, field


def test_int64_compiled_artifact_loads_bit_identically(tmp_path,
                                                       monkeypatch):
    """An artifact of all-int64 records still loads exactly."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    geometry = CacheGeometry.normal(8)
    fetch_input = _reload("gcc", geometry)
    expect = {flag: _compile(_segmented(fetch_input), flag)
              for flag in (True, False)}
    path, = _derived_files(tmp_path)
    legacy = {key: value.astype(np.int64) if value.dtype.kind in "iu"
              else value
              for key, value in disk_cache.read_records(
                  path.read_bytes()).items()}
    with open(path, "wb") as handle:
        disk_cache.write_records(handle, legacy)
    disk_cache._checksum_path(path).unlink()
    _forbid_recompile(monkeypatch)
    warm = _reload("gcc", geometry)
    for flag in (True, False):
        _assert_same_compiled(compile_fetch_input(warm, flag), expect[flag])
    monkeypatch.undo()
    registry._fetch_inputs.pop(("gcc", BUDGET, geometry))


def test_compiled_artifact_missing_a_record_is_recompiled(tmp_path,
                                                          monkeypatch):
    """A derived artifact whose records do not name every stored array
    is never served: the input is recomputed and the artifact rewritten."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    geometry = CacheGeometry.normal(8)
    source = _reload("go", geometry)
    path, = _derived_files(tmp_path)
    records = dict(disk_cache.read_records(path.read_bytes()))
    records["exit_direct_old"] = records.pop("exit_direct")
    with open(path, "wb") as handle:
        disk_cache.write_records(handle, records)
    disk_cache._checksum_path(path).unlink()
    expect = _compile(_segmented(source), True)
    _assert_same_compiled(compile_fetch_input(_reload("go", geometry), True),
                          expect)
    assert "exit_direct" in disk_cache.read_records(path.read_bytes())
    registry._fetch_inputs.pop(("go", BUDGET, geometry))


def test_filled_cache_runs_no_capture_segmentation_or_compile(
        tmp_path, monkeypatch):
    """On a filled cache, loading and compiling the fetch inputs of a
    fresh process reads every tier back: the tracer, the segmenter, the
    base compile and the read-row builder never run."""
    import repro.cpu

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    names = ("go", "su2cor")
    geometry = CacheGeometry.self_aligned(8)

    def compile_all():
        return {(name, flag): compile_fetch_input(
                    load_fetch_input(name, geometry, BUDGET), flag)
                for name in names for flag in (False, True)}

    def forget():
        """Drop every in-memory layer, as a new process starts without."""
        registry.REGISTRY.clear_caches()
        registry._fetch_inputs.clear()

    forget()
    expect = compile_all()
    forget()

    def forbidden(what):
        def call(*args, **kwargs):
            raise AssertionError(f"{what} ran on a filled cache")
        return call

    monkeypatch.setattr(repro.cpu, "capture_machine", forbidden("tracer"))
    monkeypatch.setattr(registry, "segment_blocks", forbidden("segmenter"))
    monkeypatch.setattr(kernels, "_stored_arrays", forbidden("compile"))
    monkeypatch.setattr(kernels, "read_rows", forbidden("read rows"))
    try:
        got = compile_all()
    finally:
        forget()
    for key, compiled in expect.items():
        _assert_same_compiled(got[key], compiled)


def test_compiled_cache_invalidates_on_record_count():
    geometry = CacheGeometry.extended(8)
    fetch_input = load_fetch_input("li", geometry, BUDGET)
    stale = disk_cache.load_compiled("li", BUDGET, geometry,
                                     registry.REGISTRY.digest("li"),
                                     fetch_input.trace.n_records + 1)
    assert stale is None


@pytest.mark.parametrize("geometry", GEOMETRIES,
                         ids=["normal", "extend", "align"])
@pytest.mark.parametrize("name", SPEC95)
def test_loaded_rows_match_read_rows(name, geometry, tmp_path,
                                     monkeypatch):
    """The read rows read back from the derived artifact (``block``
    rebuilt on load) equal :func:`read_rows` rebuilt from the static
    codes, field by field and dtype; so does every base array."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    source = _reload(name, geometry)
    fresh = _segmented(source)
    expect = kernels._compile_base(fresh)
    monkeypatch.setattr(kernels, "read_rows", None)
    loaded = compile_fetch_input(_reload(name, geometry), False)
    _assert_same_reads(loaded.rows, read_rows(
        kernels.encode_static_codes(fresh.static, geometry.line_size, False),
        fresh.blocks.start, expect["limit"], geometry.block_width))
    for field, value in expect.items():
        if field != "rows":
            assert getattr(loaded, field).dtype == value.dtype, field
            assert np.array_equal(getattr(loaded, field), value), field
    monkeypatch.undo()
    registry._fetch_inputs.pop((name, BUDGET, geometry))


# -- lru_resident ---------------------------------------------------------


def _lru_reference(groups, keys, associativity):
    """Touch an ``OrderedDict`` per set, exactly as ``BlockBTB`` does."""
    sets = {}
    resident = []
    for group, key in zip(groups, keys):
        bucket = sets.setdefault(group, OrderedDict())
        resident.append(key in bucket)
        if key in bucket:
            bucket.move_to_end(key)
        else:
            if len(bucket) >= associativity:
                bucket.popitem(last=False)
            bucket[key] = None
    return resident


@settings(max_examples=200, deadline=None)
@given(associativity=st.integers(1, 8), n_sets=st.integers(1, 4),
       warm=st.booleans(),
       lines=st.lists(st.integers(0, 40), max_size=300))
def test_lru_resident_matches_ordered_dict(associativity, n_sets, warm,
                                           lines):
    if warm:
        # Warm contents replay as leading touches, least recent first:
        # up to ``associativity`` distinct resident lines per set.
        seeds = []
        for index in range(n_sets):
            seeds += [index + n_sets * k for k in range(associativity)]
        lines = seeds + lines
    keys = np.asarray(lines, dtype=np.int64)
    groups = keys % n_sets
    got = lru_resident(groups, keys, associativity)
    assert got.tolist() == _lru_reference(groups.tolist(), lines,
                                          associativity)


@pytest.mark.parametrize("associativity,n_sets,n_keys", [
    (1, 4, 24), (2, 8, 64), (4, 16, 200), (4, 1, 12)])
def test_lru_resident_many_far_touches(associativity, n_sets, n_keys,
                                       qa_seed):
    """Long streams whose repeat touches mostly lie more than
    ``associativity`` touches apart, so most need the between count."""
    rng = np.random.default_rng([qa_seed, associativity, n_sets])
    keys = rng.integers(0, n_keys, size=4000, dtype=np.int64)
    groups = keys % n_sets
    last = {}
    far = 0
    for i, key in enumerate(keys.tolist()):
        far += key in last and i - last[key] > associativity
        last[key] = i
    assert far > 2000
    got = lru_resident(groups, keys, associativity)
    want = _lru_reference(groups.tolist(), keys.tolist(), associativity)
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)
