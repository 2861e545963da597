"""Structure-of-arrays block streams and batched engine kernels.

The scalar fetch engines replay one block at a time: rebuild its BIT
window, walk it code by code against the blocked PHT, then train.  This
module compiles a :class:`~repro.core.config.FetchInput` once into flat
numpy arrays (:class:`CompiledBlocks`) and resolves whole runs at once:

* every block's GHR value and PHT base index come straight from the
  trace (the architectural history is a pure function of the conditional
  outcome stream — :func:`packed_history`);
* the walks read the PHT only at conditional window positions, so a
  view keeps those positions as a sparse :class:`ReadList` (row-major:
  block, column, BIT code, rank in the row, plus each row's first
  non-conditional branch) instead of a dense window matrix; all of it
  but the codes is flag-independent (:class:`ReadRows`);
* every PHT counter write (the training) is resolved by one write scan
  (:func:`scan_writes`: closed form for single-outcome slots, a
  segmented clamped-shift scan for the rest).  A read of a conditional
  its own block executes reads the very slot that conditional's write
  trains, so it takes the state that write found; only the other reads
  binary-search the writes (:func:`scan_counters`);
* the first-predicted-taken walk of every block is one pass over the
  list: the earlier of its first predicted-taken read and its first
  non-conditional branch (:func:`walk_reads`);
* Figure 7's stale BIT reads go through the same :func:`read_rows`,
  over the lines a table replay finds (:func:`stale_bit_windows`).

The near-block flag changes only the BIT encoding, so the compiled
form is one read-only, near-block-independent base per ``FetchInput``,
read rows included, memoised on it, plus a per-flag ``code_of_addr``
and read codes built on demand and never stored.  For the workload
registry's inputs the base and rows are persisted with the block
stream as one derived cache artifact (:func:`store_fetch_input`,
:func:`cached_fetch_input`), so a warm process rebuilds none of them.
:mod:`repro.core.fast` drives these kernels per engine; the scalar
loops remain the readable ground truth and the parity suite keeps both
bit-identical.  This module is the one vectorized counter layer:
Figure 6's :func:`~repro.predictors.evaluate.direction_accuracy_sweep`
runs on :func:`scan_writes` too.

The base keeps the block stream's natural widths, cold or loaded:
``int32`` addresses and indices, ``int8`` counts and offsets within a
block (:data:`STORED_DTYPES`,
:data:`~repro.trace.blocks.STREAM_DTYPES`).  Under numpy 2 a narrow
array combined with a Python int stays narrow and wraps silently, so
every packed key and product (the counter search keys, the stale
reads' events and addresses, and the engines' PHT, select and target
keys in :mod:`repro.core.fast`) is computed in ``int64``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..icache.geometry import CacheGeometry, SELF_ALIGNED
from ..isa.kinds import InstrKind
from ..isa.program import StaticCode
from ..predictors.counters import COUNTER_MAX, COUNTER_MIN
from ..runtime import cache as disk_cache
from ..runtime import profile
from ..trace.blocks import (MAX_BLOCK_WIDTH, MAX_INDEX, STREAM_DTYPES,
                            BlockStream)
from ..trace.record import Trace
from .config import FetchInput
from .selection import SRC_ARRAY, SRC_FALLTHROUGH, SRC_NEAR, SRC_RAS

K_COND = int(InstrKind.COND)
K_JUMP = int(InstrKind.JUMP)
K_CALL = int(InstrKind.CALL)
K_RETURN = int(InstrKind.RETURN)
K_INDIRECT = int(InstrKind.INDIRECT)
K_HALT = int(InstrKind.HALT)

#: Integer BitCode values (``repro.targets.bit.BitCode``) used in the
#: read lists; near-block conditionals are 4..7.
CODE_NONBRANCH = 0
CODE_RETURN = 1
CODE_OTHER = 2
CODE_COND_LONG = 3

#: Counter states >= this predict taken (``counter_predicts_taken``).
TAKEN_MIN = 2

#: ``exit_offset`` sentinel for a fall-through walk (scalar ``None``).
NO_EXIT = -1

#: Address past every block (:func:`read_rows`' next-other-branch
#: sentinel): the segmentation keeps ``start + limit`` below
#: ``MAX_INDEX``.
FAR = np.int32(MAX_INDEX - 1)

#: Exit offset of a fall-through block, past every block limit (widths
#: are at most ``MAX_BLOCK_WIDTH``), so MATCH/EARLY/LATE reduce to
#: comparisons.  Fits the ``int8`` of ``act_exit``.
FAR_EXIT = np.int8(MAX_BLOCK_WIDTH)


# ----------------------------------------------------------------------
# Static-code and block-stream compilation
# ----------------------------------------------------------------------

def encode_static_codes(static: StaticCode, line_size: int,
                        near_block: bool) -> np.ndarray:
    """Per-address BIT codes of the whole text segment (``uint8``).

    Vectorised twin of :func:`repro.targets.bit.encode_instruction`
    applied to every address at once.
    """
    kind = np.asarray(static.kind, dtype=np.uint8)
    direct = np.asarray(static.direct_target, dtype=np.int64)
    n = len(kind)
    codes = np.zeros(n, dtype=np.uint8)
    codes[kind == K_RETURN] = CODE_RETURN
    codes[(kind == K_JUMP) | (kind == K_CALL)
          | (kind == K_INDIRECT)] = CODE_OTHER
    is_cond = kind == K_COND
    codes[is_cond] = CODE_COND_LONG
    if near_block:
        addr = np.arange(n, dtype=np.int64)
        line_off = direct // line_size - addr // line_size
        near = is_cond & (direct >= 0) & (line_off >= -1) & (line_off <= 2)
        # Line offsets -1/0/1/2 are BitCodes 4/5/6/7 (Table 1).
        codes[near] = (line_off[near] + 5).astype(np.uint8)
    return codes


@dataclass
class ReadList:
    """The PHT reads of every block's walk, as a sparse row-major list.

    A walk reads the PHT only at conditional window positions, and it
    stops at the row's first non-conditional branch (RETURN/OTHER
    always exit), so a row lists the conditionals before that branch,
    in column order.  Per-read arrays have one entry per listed
    conditional; per-row arrays one entry per block.  Columns and ranks
    are at most the block width, so they are stored narrow.
    """

    block: np.ndarray     #: int32[r] owning block (nondecreasing)
    col: np.ndarray       #: uint8[r] window column
    code: np.ndarray      #: uint8[r] BIT code (>= CODE_COND_LONG)
    rank: np.ndarray      #: uint8[r] conditionals before it in its row
    stop_col: np.ndarray  #: uint8[n] first non-conditional branch, or W
    stop_code: np.ndarray  #: uint8[n] its BIT code, or CODE_NONBRANCH
    n_before: np.ndarray  #: uint8[n] listed conditionals of the row


@dataclass(eq=False)
class ReadRows:
    """The near-block-independent part of a fetch input's read lists.

    ``near_block`` only turns ``CODE_COND_LONG`` codes into near codes
    (4..7), so the conditional addresses and the RETURN/OTHER stops are
    the same under both flags: every read's block, column and rank and
    every row's stop are too.  One ``ReadRows`` per fetch input serves
    both views, which add only their own ``code`` array
    (:meth:`reads`).  Arrays are read-only.
    """

    block: np.ndarray      #: int32[r] owning block (nondecreasing)
    col: np.ndarray        #: uint8[r] window column
    rank: np.ndarray       #: uint8[r] conditionals before it in its row
    stop_col: np.ndarray   #: uint8[n] first non-conditional branch, or W
    stop_code: np.ndarray  #: uint8[n] its BIT code, or CODE_NONBRANCH
    n_before: np.ndarray   #: uint8[n] listed conditionals of the row
    width: int             #: geometry block width
    _slots: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        for array in (self.block, self.col, self.rank, self.stop_col,
                      self.stop_code, self.n_before):
            array.setflags(write=False)

    def reads(self, code_of_addr: np.ndarray,
              start: np.ndarray) -> ReadList:
        """The read list of one flag: these rows plus each read's code
        gathered from that flag's ``code_of_addr``."""
        code = code_of_addr[start[self.block] + self.col]
        return ReadList(block=self.block, col=self.col, code=code,
                        rank=self.rank, stop_col=self.stop_col,
                        stop_code=self.stop_code, n_before=self.n_before)

    def slots(self, start: np.ndarray, conds_before: np.ndarray,
              n_conds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(write, offset)`` of every read, computed on first use.

        A block executes its listed conditionals in column order, so a
        read ranked below the block's conditional count is one of its
        own: ``write`` is the index of that conditional's training write
        in the conditional stream, -1 for any other read.  ``offset`` is
        the read's position in its PHT entry's counter block,
        ``(start[block] + col) % width``.  Both depend only on the rows
        and the flag-independent base, so the two views share one
        (read-only) copy, and a run that never resolves never pays for
        it.
        """
        if self._slots is None:
            rb = self.block
            own = self.rank < n_conds[rb]
            write = np.where(own, conds_before[rb] + self.rank,
                             np.int32(-1))
            offset = ((start[rb] + self.col) % self.width).astype(np.uint8)
            write.setflags(write=False)
            offset.setflags(write=False)
            self._slots = (write, offset)
        return self._slots


def read_rows(code_of_addr: np.ndarray, start: np.ndarray,
              limit: np.ndarray, width: int) -> ReadRows:
    """The :class:`ReadRows` of blocks ``[start, start + limit)``.

    Built straight from the per-address codes (either flag's give the
    same rows) through two per-address tables: the next other-branch
    address at or after each address gives every block's stop, and the
    count of conditional addresses below each address bounds its reads.
    Addresses past the text segment are non-branches.  The segmentation
    keeps addresses, blocks and ``start + limit`` below ``MAX_INDEX``,
    so every table and temporary is ``int32``.
    """
    n = len(start)
    text = len(code_of_addr)
    is_cond = code_of_addr >= CODE_COND_LONG
    is_other = (code_of_addr != CODE_NONBRANCH) & ~is_cond
    conds_below = np.zeros(text + 1, dtype=np.int32)
    np.cumsum(is_cond, dtype=np.int32, out=conds_below[1:])
    next_other = np.full(text + 1, FAR, dtype=np.int32)
    next_other[:text][is_other] = np.flatnonzero(is_other)
    next_other = np.minimum.accumulate(next_other[::-1])[::-1]

    first = np.minimum(start, np.int32(text))
    end = start + limit
    stop = next_other[first]
    np.minimum(stop, end, out=stop)
    has_stop = stop < end
    del end
    stop_code = np.full(n, CODE_NONBRANCH, dtype=np.uint8)
    stop_code[has_stop] = code_of_addr[stop[has_stop]]
    lo = conds_below[first]
    del first
    n_before = conds_below[np.minimum(stop, np.int32(text))]
    n_before -= lo
    if int(n_before.sum(dtype=np.int64)) >= MAX_INDEX:
        raise ValueError("read list exceeds 2**31 reads")
    stop -= start
    stop_col = np.where(has_stop, stop, np.int32(width))
    del stop, has_stop
    block = _owners(n_before)
    rank = np.arange(len(block), dtype=np.int32) - _firsts(n_before)[block]
    cond_addr = np.flatnonzero(is_cond).astype(np.int32)
    col = cond_addr[lo[block] + rank] - start[block]
    del lo
    return ReadRows(block=block, col=col.astype(np.uint8),
                    rank=rank.astype(np.uint8),
                    stop_col=stop_col.astype(np.uint8), stop_code=stop_code,
                    n_before=n_before.astype(np.uint8), width=width)


def _owners(counts: np.ndarray) -> np.ndarray:
    """The group of every item, for consecutive groups of ``counts``
    items (``int32``)."""
    return np.repeat(np.arange(len(counts), dtype=np.int32), counts)


def _firsts(counts: np.ndarray) -> np.ndarray:
    """The first item of every group, for consecutive groups of
    ``counts`` items (``int32``)."""
    firsts = np.zeros(len(counts), dtype=np.int32)
    np.cumsum(counts[:-1], dtype=np.int32, out=firsts[1:])
    return firsts


@dataclass
class CompiledBlocks:
    """One trace's block stream flattened into structure-of-arrays form.

    All per-block arrays have one entry per fetch block, in fetch order;
    the conditional arrays are the trace's conditional-branch stream.
    ``reads`` lists each block's conditional BIT positions up to its
    first non-conditional branch or its geometry limit
    (:class:`ReadList`).  Only ``code_of_addr`` and ``reads.code``
    depend on ``near_block``: the two views of one fetch input share
    every other array (read-only), the read list's through ``rows``.

    Arrays keep their natural width, cold or loaded: ``int32`` for
    addresses and indices, ``int8`` for counts and offsets within a
    block.
    """

    near_block: bool
    n_blocks: int
    start: np.ndarray        #: int32[n]
    limit: np.ndarray        #: int8[n] geometry block limit
    n_instr: np.ndarray      #: int8[n]
    exit_kind: np.ndarray    #: uint8[n] InstrKind / EXIT_FALLTHROUGH
    exit_target: np.ndarray  #: int32[n]
    has_exit: np.ndarray     #: bool[n]  taken (non-HALT) exit
    is_halt: np.ndarray      #: bool[n]
    exit_pc: np.ndarray      #: int32[n] (-1 without a taken exit)
    exit_direct: np.ndarray  #: int32[n] static direct target at exit_pc
    act_exit: np.ndarray     #: int8[n] exit offset, FAR_EXIT otherwise
    line0: np.ndarray        #: int32[n] start line index
    reads: ReadList          #: conditional window positions
    rows: ReadRows           #: the flag-independent part of ``reads``
    code_of_addr: np.ndarray  #: uint8[text size] per-address BIT codes
    conds_before: np.ndarray  #: int32[n] conds in trace before the block
    n_conds: np.ndarray      #: int8[n] conds inside the block
    cond_block: np.ndarray   #: int32[m] owning block of each conditional
    cond_pos: np.ndarray     #: int8[m] pc % block_width
    cond_taken: np.ndarray   #: bool[m]


#: Base arrays beyond the block stream's, with their in-memory dtypes.
#: The rest of the base is the ``BlockStream``'s own arrays (``start``,
#: ``n_instr``, ``exit_kind``, ``exit_target``, in
#: :data:`~repro.trace.blocks.STREAM_DTYPES`) or derives from them
#: (``has_exit``, ``is_halt``, ``act_exit``).
STORED_DTYPES = {
    "limit": np.int8, "exit_pc": np.int32, "exit_direct": np.int32,
    "line0": np.int32, "conds_before": np.int32, "n_conds": np.int8,
    "cond_block": np.int32, "cond_pos": np.int8, "cond_taken": bool,
}

#: In-memory dtype of every :class:`ReadRows` array: columns, ranks and
#: counts are at most ``MAX_BLOCK_WIDTH``.
ROW_DTYPES = {
    "block": np.int32, "col": np.uint8, "rank": np.uint8,
    "stop_col": np.uint8, "stop_code": np.uint8, "n_before": np.uint8,
}

#: Arrays of a fetch input the derived cache artifact leaves out and
#: rebuilds on load, each in one numpy pass over stored ones
#: (:func:`_rebuilt`, :func:`_firsts`, :func:`_owners`): none reads back
#: much faster than it rebuilds, and leaving them out keeps the
#: artifact a third smaller.
DERIVED_ON_LOAD = ("first_rec", "conds_before", "line0", "exit_pc",
                   "block")

#: Arrays the derived cache artifact stores, with their in-memory
#: dtypes: the block stream's, the base's and the read rows', less
#: :data:`DERIVED_ON_LOAD`.
ARTIFACT_DTYPES = {
    field: dtype
    for table in (STREAM_DTYPES, STORED_DTYPES, ROW_DTYPES)
    for field, dtype in table.items() if field not in DERIVED_ON_LOAD}


def _stream_arrays(blocks: BlockStream) -> Dict[str, np.ndarray]:
    """Base arrays the block stream holds (by reference) or derives."""
    exit_kind = blocks.exit_kind
    has_exit = (exit_kind != 0) & (exit_kind != K_HALT)
    return {
        "start": blocks.start, "n_instr": blocks.n_instr,
        "exit_kind": exit_kind, "exit_target": blocks.exit_target,
        "has_exit": has_exit, "is_halt": exit_kind == K_HALT,
        "act_exit": np.where(has_exit, blocks.n_instr - np.int8(1),
                             FAR_EXIT),
    }


def _rebuilt(stream: Dict[str, np.ndarray], n_conds: np.ndarray,
             line_size: int) -> Dict[str, np.ndarray]:
    """The :data:`DERIVED_ON_LOAD` base arrays, from the block stream's
    arrays and the per-block conditional counts."""
    start = stream["start"]
    return {
        "exit_pc": np.where(stream["has_exit"],
                            start + stream["n_instr"] - 1, np.int32(-1)),
        "line0": start // np.int32(line_size),
        "conds_before": _firsts(n_conds),
    }


def _stored_arrays(fetch_input: FetchInput,
                   stream: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Compute the :data:`STORED_DTYPES` arrays of one fetch input.

    Addresses and conditional counts stay ``int32``, which the
    segmentation's bounds guarantee, so no ``int64`` copy of a
    per-block array is made.
    """
    blocks = fetch_input.blocks
    geometry = fetch_input.geometry
    trace = fetch_input.trace
    start = stream["start"]

    # Conditional stream: record windows partition the trace, so the
    # per-block conds are the global conditional stream split by the
    # blocks' record windows.
    cond_mask = trace.cond_mask
    cond_prefix = np.zeros(len(cond_mask) + 1, dtype=np.int32)
    np.cumsum(cond_mask, dtype=np.int32, out=cond_prefix[1:])
    n_conds = (cond_prefix[blocks.first_rec + blocks.n_recs]
               - cond_prefix[blocks.first_rec])
    arrays = _rebuilt(stream, n_conds, geometry.line_size)

    exit_pc = arrays["exit_pc"]
    direct = np.asarray(fetch_input.static.direct_target,
                        dtype=np.int64)
    exit_direct = np.full(len(start), -1, dtype=np.int32)
    known = stream["has_exit"] & (exit_pc < len(direct))
    exit_direct[known] = direct[exit_pc[known]]

    arrays.update({
        "limit": geometry.block_limits(start), "exit_direct": exit_direct,
        "n_conds": n_conds, "cond_block": _owners(n_conds),
        "cond_pos": trace.pc[cond_mask] % geometry.block_width,
        "cond_taken": trace.taken[cond_mask],
    })
    return {field: arrays[field].astype(dtype, copy=False)
            for field, dtype in STORED_DTYPES.items()}


def _frozen(base: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Read-only views of ``base``: both flags' views share them."""
    views = {}
    for key, array in base.items():
        view = array.view()
        view.setflags(write=False)
        views[key] = view
    return views


def _compile_base(fetch_input: FetchInput) -> Dict[str, object]:
    """Every near-block-independent array of one fetch input, read rows
    included."""
    stream = _stream_arrays(fetch_input.blocks)
    base: Dict[str, object] = _frozen(
        {**stream, **_stored_arrays(fetch_input, stream)})
    geometry = fetch_input.geometry
    base["rows"] = read_rows(
        encode_static_codes(fetch_input.static, geometry.line_size, False),
        base["start"], base["limit"], geometry.block_width)
    return base


def _view(base: Dict[str, object], fetch_input: FetchInput,
          near_block: bool) -> CompiledBlocks:
    """``base`` plus the BIT codes of one near-block flag."""
    code_of_addr = encode_static_codes(
        fetch_input.static, fetch_input.geometry.line_size, near_block)
    start = base["start"]
    return CompiledBlocks(near_block=near_block, n_blocks=len(start),
                          reads=base["rows"].reads(code_of_addr, start),
                          code_of_addr=code_of_addr, **base)


def _compile(fetch_input: FetchInput, near_block: bool) -> CompiledBlocks:
    """Build the structure-of-arrays form of one fetch input afresh."""
    return _view(_compile_base(fetch_input), fetch_input, near_block)


def _memo(fetch_input: FetchInput) -> dict:
    """The compiled forms memoised on ``fetch_input``."""
    memo = getattr(fetch_input, "_compiled", None)
    if memo is None:
        memo = fetch_input._compiled = {}
    return memo


def store_fetch_input(fetch_input: FetchInput, name: str, budget: int,
                      digest: str) -> None:
    """Compile the base of a freshly segmented input, memoise it and
    persist the one derived artifact (:data:`ARTIFACT_DTYPES`).

    A no-op while the disk cache is disabled: the base is then compiled
    by the first :func:`compile_fetch_input` that needs it.
    """
    if not disk_cache.enabled():
        return
    with profile.phase("compile"):
        base = _memo(fetch_input)["base"] = _compile_base(fetch_input)
    arrays = {**vars(fetch_input.blocks), **base, **vars(base["rows"])}
    disk_cache.store_compiled(
        {field: arrays[field] for field in ARTIFACT_DTYPES}, name, budget,
        fetch_input.geometry, digest, fetch_input.trace.n_records)


def cached_fetch_input(trace: Trace, static: StaticCode,
                       geometry: CacheGeometry, name: str, budget: int,
                       digest: str) -> Optional[FetchInput]:
    """The fetch input :func:`store_fetch_input` persisted.

    One read of the derived artifact gives the block stream, the base
    and the read rows.  Every array is cast (and so copied) to its
    in-memory dtype, so no file buffer stays alive and stored widths
    (narrow, or all-``int64`` records) never reach the engines.  The
    block stream is rebuilt here; the base and rows are memoised as
    loaded and assembled by the first :func:`compile_fetch_input`
    (:func:`_loaded_base`), so a caller that only needs the blocks
    rebuilds nothing more.  ``None`` on a miss, on a stale or
    quarantined artifact, or on one that lacks a record: the caller
    segments afresh and overwrites it.
    """
    data = disk_cache.load_compiled(name, budget, geometry, digest,
                                    trace.n_records)
    if data is None or not data.keys() >= ARTIFACT_DTYPES.keys():
        return None
    arrays = {field: data[field].astype(dtype)
              for field, dtype in ARTIFACT_DTYPES.items()}
    blocks = BlockStream(
        trace=trace, geometry=geometry, first_rec=_firsts(arrays["n_recs"]),
        **{field: arrays[field] for field in STREAM_DTYPES
           if field != "first_rec"})
    fetch_input = FetchInput(trace=trace, static=static, geometry=geometry,
                             blocks=blocks)
    _memo(fetch_input)["loaded"] = arrays
    return fetch_input


def _loaded_base(fetch_input: FetchInput,
                 arrays: Dict[str, np.ndarray]) -> Dict[str, object]:
    """The base of a :func:`cached_fetch_input`, from its loaded arrays
    and the :data:`DERIVED_ON_LOAD` ones rebuilt."""
    geometry = fetch_input.geometry
    stream = _stream_arrays(fetch_input.blocks)
    rebuilt = _rebuilt(stream, arrays["n_conds"], geometry.line_size)
    base: Dict[str, object] = _frozen({**stream, **{
        field: rebuilt[field] if field in rebuilt else arrays[field]
        for field in STORED_DTYPES}})
    base["rows"] = ReadRows(
        block=_owners(arrays["n_before"]), width=geometry.block_width,
        **{field: arrays[field] for field in ROW_DTYPES if field != "block"})
    return base


def compile_fetch_input(fetch_input: FetchInput,
                        near_block: bool) -> CompiledBlocks:
    """Compiled form of ``fetch_input``, memoised.

    One near-block-independent base, read rows included, is memoised on
    the ``FetchInput``: assembled from the arrays
    :func:`cached_fetch_input` loaded, carried from
    :func:`store_fetch_input`, or, for any other input, compiled here.
    Each flag's view adds its own ``code_of_addr`` and read codes and is
    memoised beside it.  Nothing here touches the disk.
    """
    memo = _memo(fetch_input)
    compiled = memo.get(near_block)
    if compiled is not None:
        return compiled
    with profile.phase("compile"):
        base = memo.get("base")
        if base is None:
            loaded = memo.pop("loaded", None)
            base = memo["base"] = (
                _compile_base(fetch_input) if loaded is None
                else _loaded_base(fetch_input, loaded))
        compiled = memo[near_block] = _view(base, fetch_input, near_block)
    return compiled


# ----------------------------------------------------------------------
# Grouping and history streams
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# 2-bit counter scan (PHT training streams)
# ----------------------------------------------------------------------
#
# A counter update is the clamped shift  s -> min(hi, max(lo, s + k)),
# and clamped shifts compose into clamped shifts, so the state every
# write finds falls out of an O(log n)-pass Hillis-Steele scan over the
# writes grouped (stably) by slot.  :func:`scan_writes` is the one entry
# point: the engines' :func:`scan_counters` and Figure 6's
# ``direction_accuracy_sweep`` both resolve their writes through it.

#: Sentinel clamp bounds that can never bind for a 2-bit counter.
_NO_LO = np.int64(-8)
_NO_HI = np.int64(8)


@dataclass
class WriteScan:
    """A write stream grouped by slot, with every write's counter states.

    Arrays are in grouped order: slots ascending, stream order within a
    slot, so ``slot == slots[order]``.
    """

    order: np.ndarray      #: int64[m] stream index of each grouped write
    slot: np.ndarray       #: int64[m]
    taken: np.ndarray      #: bool[m]
    seg_start: np.ndarray  #: bool[m] first write of its slot
    before: np.ndarray     #: int8[m] state the write found (predicted from)
    after: np.ndarray      #: int8[m] state the write left behind


def scan_writes(counters: np.ndarray, slots: np.ndarray,
                taken: np.ndarray) -> WriteScan:
    """Replay a (slot, outcome) write stream over 2-bit counters.

    Each slot starts from ``counters[slot]`` (cold or warm) and takes its
    writes in stream order, exactly as a sequential ``counter_update``
    loop.

    A slot whose writes all share one outcome saturates monotonically:
    from state ``s`` its write ``j`` (counting from 0) finds
    ``min(3, s + j)`` (all taken) or ``max(0, s - j)`` (all not taken),
    the bound itself from ``j = 3`` on.  Those slots are answered in
    closed form and only the mixed ones go through the scan.
    """
    m = slots.shape[0]
    order = _grouping_order(slots)
    s_slot = slots[order]
    s_taken = taken[order]
    seg_start = np.ones(m, dtype=bool)
    seg_start[1:] = s_slot[1:] != s_slot[:-1]
    starts = np.flatnonzero(seg_start)
    seg_len = np.diff(starts, append=m)
    n_taken = np.add.reduceat(s_taken, starts, dtype=np.int64)
    init = counters[s_slot[starts]].astype(np.int8)

    # Closed form: the bound everywhere, then each slot's first writes
    # (wrong for mixed slots, which the scan overwrites below).
    before = np.where(s_taken, np.int8(COUNTER_MAX), np.int8(COUNTER_MIN))
    step = np.where(n_taken > 0, np.int8(1), np.int8(-1))
    for j in range(COUNTER_MAX - COUNTER_MIN):
        reach = seg_len > j
        before[starts[reach] + j] = np.clip(
            init[reach] + step[reach] * np.int8(j), COUNTER_MIN, COUNTER_MAX)

    mixed = (n_taken > 0) & (n_taken < seg_len)
    if mixed.any():
        sub = np.flatnonzero(np.repeat(mixed, seg_len))
        before[sub] = _clamped_scan_transfers(
            s_taken[sub], seg_start[sub],
            np.repeat(init[mixed], seg_len[mixed]))

    after = before + np.where(s_taken, np.int8(1), np.int8(-1))
    np.clip(after, COUNTER_MIN, COUNTER_MAX, out=after)
    return WriteScan(order=order, slot=s_slot, taken=s_taken,
                     seg_start=seg_start, before=before, after=after)


def _clamped_scan_transfers(taken: np.ndarray, seg_start: np.ndarray,
                            init: np.ndarray) -> np.ndarray:
    """Segmented clamped-shift scan over a grouped write stream.

    ``taken`` holds the writes' outcomes grouped by slot, ``seg_start``
    flags each slot's first write and ``init`` holds each write's slot's
    starting state (constant within a segment).  Every segment has at
    least two writes (single-outcome slots never get here).  Returns the
    state each write found.
    """
    n = taken.shape[0]
    # The composite over a window is again a clamped shift; its net shift
    # is bounded by the window length, so int16 holds every composite for
    # any segment shorter than 32k writes (int64 otherwise).
    indices = np.arange(n, dtype=np.int64)
    pos = indices - np.maximum.accumulate(
        np.where(seg_start, indices, np.int64(0)))
    max_pos = int(pos.max())
    dtype = np.int16 if max_pos < 30000 else np.int64
    # Per-write transfer as a clamped shift (k, lo, hi): taken -> s+1
    # capped at COUNTER_MAX; not taken -> s-1 floored at COUNTER_MIN.
    k = np.where(taken, dtype(1), dtype(-1))
    lo = np.where(taken, dtype(_NO_LO), dtype(COUNTER_MIN))
    hi = np.where(taken, dtype(COUNTER_MAX), dtype(_NO_HI))

    # After the pass at distance d, element i's composite covers the
    # writes [i-2d+1, i] clipped to its segment — so i participates in
    # that pass iff pos[i] >= d, a static condition.  Keeping the
    # triples sorted by descending position makes every pass's active
    # set a contiguous prefix: the only random access left is gathering
    # each element's partner at original distance d.
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
        count = int(np.searchsorted(neg_sorted, -distance, side="right"))
        partner = rank[by_pos[:count] - distance]
        # Gathered copies of the earlier composite (1)...
        pk = k[partner]
        plo = lo[partner]
        phi = hi[partner]
        # ...composed in place with views of the later one (2):
        # K = k1+k2, HI = min(hi2, max(lo2, hi1+k2)),
        # LO = max(lo2, lo1+k2).  All reads of the active prefix happen
        # before the writes below, so same-pass partners see the pass's
        # input values, as Hillis-Steele requires.
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

    # Composites were reordered and restored by position; the per-write
    # base is constant within a segment and indexed in grouped order.
    base = init.astype(dtype)
    after = np.minimum(hi[rank], np.maximum(lo[rank], base + k[rank]))
    before = np.empty(n, dtype=dtype)
    before[1:] = after[:-1]
    before[seg_start] = base[seg_start]
    return before


def scan_counters(counters: np.ndarray,
                  read_blocks: np.ndarray, read_slots: np.ndarray,
                  write_blocks: np.ndarray, write_slots: np.ndarray,
                  write_taken: np.ndarray,
                  read_write: Optional[np.ndarray] = None):
    """Resolve every PHT read against the interleaved training stream.

    Each block's walk reads happen before its own training writes and
    blocks proceed in stream order — encoded as the time key
    ``2*block + is_write`` — so the counter state a read observes is
    determined by the writes to its slot with a smaller time key.
    ``counters`` is a snapshot of the table (each slot starts from its
    current state).  The write stream must arrive in block order
    (``write_blocks`` nondecreasing, as the compiled cond arrays are), so
    :func:`scan_writes`' stable grouping keeps each slot's writes in time
    order.

    Reads are pure observers: only the writes go through
    :func:`scan_writes`.  ``read_write`` (one entry per read, optional)
    names a write of the read's own block to the read's own slot: that
    write is the next one the slot takes, so the read observes exactly
    the state the write found.  Every other read (``read_write < 0``, or
    all of them without the map) finds its preceding same-slot write
    with a binary search over the packed ``slot * stride + time`` write
    keys — the read array itself is never sorted.

    Returns ``(read_taken, final_slots, final_states)``: the taken
    prediction of every read (in input order) and the post-run state of
    every written slot (ascending), for write-back.
    """
    if len(write_slots) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return counters[read_slots] >= TAKEN_MIN, empty, empty.copy()

    scan = scan_writes(counters, write_slots, write_taken)
    ws = scan.slot
    after_w = scan.after
    w_end = np.append(scan.seg_start, True)[1:]
    final_slots = ws[w_end]
    final_states = after_w[w_end].astype(np.int64)

    if len(read_slots) == 0:
        return np.zeros(0, dtype=bool), final_slots, final_states

    state = np.empty(len(read_slots), dtype=np.int8)
    if read_write is None:
        rest = np.arange(len(read_slots), dtype=np.int64)
    else:
        # Own-write reads: the state each write found, in stream order.
        before = np.empty(len(write_slots), dtype=np.int8)
        before[scan.order] = scan.before
        own = read_write >= 0
        state[own] = before[read_write[own]]
        rest = np.flatnonzero(~own)
    if len(rest):
        state[rest] = _search_states(scan, counters, read_blocks[rest],
                                     read_slots[rest], write_blocks)
    return state >= TAKEN_MIN, final_slots, final_states


def _search_states(scan: WriteScan, counters: np.ndarray,
                   read_blocks: np.ndarray, read_slots: np.ndarray,
                   write_blocks: np.ndarray) -> np.ndarray:
    """Counter state each read observes, by binary search over the writes.

    Packed search keys: stride past the largest time key so keys ascend
    with (slot, time).  Reads use time 2*block, writes 2*block + 1, so a
    read at block b observes only writes at blocks strictly before b —
    exactly the scalar interleaving.
    """
    stride = 2 * np.int64(max(int(read_blocks.max()),
                              int(write_blocks.max()))) + 2
    # Keys exceed int32 even when the operands fit it: pack in int64.
    wb = write_blocks[scan.order].astype(np.int64)
    wkey = scan.slot.astype(np.int64) * stride + 2 * wb + 1
    rslot = read_slots.astype(np.int64) * stride
    pos = np.searchsorted(wkey, rslot + 2 * read_blocks.astype(np.int64),
                          side="left")
    slot_base = np.searchsorted(wkey, rslot, side="left")
    has_prior = pos > slot_base
    return np.where(has_prior, scan.after[np.maximum(pos - 1, 0)],
                    counters[read_slots])


# ----------------------------------------------------------------------
# Batched block walks
# ----------------------------------------------------------------------

@dataclass
class WalkArrays:
    """Per-block results of the batched first-predicted-taken walk.

    ``sel``/``pay`` encode the scalar walk's ``selector`` and
    ``ghr_payload`` as single integers whose equality matches the
    scalar dataclass equality; the cold select-table default encodes to
    ``(0, 0)``.
    """

    exit_off: np.ndarray    #: int64[n], NO_EXIT for fall-through
    pred_exit: np.ndarray   #: int64[n], exit_off, FAR_EXIT for fall-through
    src: np.ndarray         #: int64[n] SRC_* constant
    near: np.ndarray        #: int64[n] near BitCode or -1
    n_not_taken: np.ndarray  #: int64[n]
    ends_taken: np.ndarray  #: bool[n]
    sel: np.ndarray         #: int64[n] encoded selector
    pay: np.ndarray         #: int64[n] encoded GHR payload


def encode_selector(width: int, src: int, exit_off: Optional[int],
                    near: Optional[int]) -> int:
    """Scalar twin of the walk kernel's selector encoding."""
    off = NO_EXIT if exit_off is None else exit_off
    near_code = -1 if near is None else int(near)
    return (src * (width + 2) + (off + 1)) * 16 + (near_code + 1)


def decode_selector(width: int, sel: int) -> Tuple[int, Optional[int],
                                                   Optional[int]]:
    """Inverse of :func:`encode_selector` (select-table write-back)."""
    near_code = sel % 16 - 1
    rest = sel // 16
    off = rest % (width + 2) - 1
    src = rest // (width + 2)
    return (src, None if off < 0 else off,
            None if near_code < 0 else near_code)


#: Prediction source of a walk's exit, by the exit's BIT code (a
#: fall-through walk has CODE_NONBRANCH).
_SRC_OF_CODE = np.array([SRC_FALLTHROUGH, SRC_RAS, SRC_ARRAY, SRC_ARRAY,
                         SRC_NEAR, SRC_NEAR, SRC_NEAR, SRC_NEAR],
                        dtype=np.int64)


def walk_reads(reads: ReadList, width: int, preds: np.ndarray) -> WalkArrays:
    """Resolve every block's walk from its read list and read predictions.

    ``preds`` holds the PHT taken-prediction of every read.  A block
    exits at its first predicted-taken read, or else at its first
    non-conditional branch (the row's stop), or falls through; every
    listed read before the exit was predicted not taken, so the GHR
    payload counts the exit read's rank (or the whole row).  Reads past
    a block's first predicted-taken one cannot affect the result —
    exactly as the scalar walk, which never reads them.
    """
    stop = reads.stop_col.astype(np.int64)
    exit_off = np.where(stop < width, stop, np.int64(NO_EXIT))
    exit_code = reads.stop_code.astype(np.int64)
    n_not_taken = reads.n_before.astype(np.int64)
    hit = np.flatnonzero(preds)
    if len(hit):
        hit_block = reads.block[hit]
        first = hit[np.concatenate(
            ([True], hit_block[1:] != hit_block[:-1]))]
        rows = reads.block[first]
        exit_off[rows] = reads.col[first]
        exit_code[rows] = reads.code[first]
        n_not_taken[rows] = reads.rank[first]
    any_exit = exit_off >= 0
    src = _SRC_OF_CODE[exit_code]
    near = np.where(exit_code > CODE_COND_LONG, exit_code, np.int64(-1))
    ends_taken = exit_code >= CODE_COND_LONG
    sel = (src * (width + 2) + (exit_off + 1)) * 16 + (near + 1)
    pay = n_not_taken * 2 + ends_taken
    return WalkArrays(
        exit_off=exit_off,
        pred_exit=np.where(any_exit, exit_off, np.int64(FAR_EXIT)),
        src=src, near=near, n_not_taken=n_not_taken,
        ends_taken=ends_taken, sel=sel, pay=pay,
    )


# ----------------------------------------------------------------------
# Bank conflicts of the blocks fetched together
# ----------------------------------------------------------------------

def bank_conflicts(line0: np.ndarray, group: int,
                   geometry: CacheGeometry) -> np.ndarray:
    """Conflict mask ``[n_groups, group]`` of each cycle's fetch group.

    Group ``a`` fetches blocks ``a*group + 1 ..`` together (``b0`` ships
    alone).  Each claims its lines in order, skipping lines already
    claimed, and a line whose bank another claimed line holds is a
    conflict (and stays unclaimed).  Normal/extended blocks read one
    line each; self-aligned blocks always read their aligned line pair.
    At ``group=2`` this is :func:`repro.icache.banks.blocks_conflict` of
    every pair ``(2a+1, 2a+2)``.  The ``<= 2 * group`` (block, line)
    positions are walked in order, vectorized across groups; slots past
    the end of the stream never conflict.
    """
    n = line0.shape[0]
    n_groups = (n + group - 1) // group
    # Pad the stream to whole groups: a padded slot trails every real
    # block of its group, so its claims can only touch other padding.
    padded = np.zeros(n_groups * group + 1, dtype=np.int64)
    padded[:n] = line0
    blocks = padded[1:].reshape(n_groups, group)
    n_banks = geometry.n_banks
    offsets = (0, 1) if geometry.kind == SELF_ALIGNED else (0,)
    claimed_lines: List[np.ndarray] = []
    claimed_banks: List[np.ndarray] = []
    conflict = np.zeros((n_groups, group), dtype=bool)
    for k in range(group):
        for offset in offsets:
            line = blocks[:, k] + offset
            bank = line % n_banks
            seen = np.zeros(n_groups, dtype=bool)
            taken = np.zeros(n_groups, dtype=bool)
            for prior_line, prior_bank in zip(claimed_lines,
                                              claimed_banks):
                seen |= prior_line == line
                taken |= prior_bank == bank
            conflict[:, k] |= ~seen & taken
            claim = ~seen & ~taken
            claimed_lines.append(np.where(claim, line, -1))
            claimed_banks.append(np.where(claim, bank, -1))
    conflict.reshape(-1)[max(n - 1, 0):] = False
    return conflict


# ----------------------------------------------------------------------
# Separate-BIT-table stale reads (Figure 7)
# ----------------------------------------------------------------------

@dataclass
class StaleWindows:
    """Vectorised separate-BIT-table behaviour for a whole run."""

    reads: ReadList          #: the stale windows' conditional positions
    accesses: int            #: BITTable.access calls the run performs
    stale_hits: int          #: aliased non-empty reads
    final_slots: np.ndarray  #: int64 slots the run filled
    final_lines: np.ndarray  #: int64 last line filled per slot


def stale_bit_windows(compiled: CompiledBlocks, line_size: int,
                      n_entries: int, width: int,
                      init_lines: np.ndarray,
                      init_codes: np.ndarray) -> StaleWindows:
    """Replay the tag-less BIT table's reads/fills for every block.

    Row ``2b`` is block b's first line and row ``2b + 1`` its second,
    empty unless the block spans two lines.  Each block reads its rows'
    entries (stale if aliased), then fills them with the true codes; a
    per-slot forward fill over that event stream recovers the line each
    read found.  Every row is then one address segment, that line's
    codes at the block's offsets, in one :func:`read_rows` call, and
    :func:`_join_line_reads` folds each block's two rows.
    ``init_lines``/``init_codes`` seed slots from the table's pre-run
    state (-1 = never written); reads served by that state use the
    *stored* codes, which a warm table may have encoded from a different
    program's static code.
    """
    n = compiled.n_blocks
    # Lines, slots and addresses: int64 throughout.
    start = compiled.start.astype(np.int64)
    limit = compiled.limit.astype(np.int64)
    span1 = np.minimum(limit, line_size - start % line_size)
    line = np.stack([compiled.line0.astype(np.int64),
                     (start + limit - 1) // line_size], axis=1).ravel()
    span = np.stack([span1, limit - span1], axis=1).ravel()

    # Events: per block, reads of its rows, then fills of the same rows
    # (key 2b, then 2b + 1; the stable sort keeps row order).
    rows = np.flatnonzero(span)
    ev_row = np.concatenate([rows, rows])
    ev_fill = np.repeat([False, True], len(rows))
    ev_slot = line[ev_row] % n_entries
    order = np.argsort((ev_row >> 1) * 2 + ev_fill, kind="stable")
    order = order[_grouping_order(ev_slot[order])]
    sl = ev_slot[order]
    ev_row = ev_row[order]
    reads = ~ev_fill[order]
    seg_start = np.concatenate([[True], sl[1:] != sl[:-1]])

    # Segmented "index of the latest fill at or before me", and the
    # line the slot holds at each event.
    idx = np.arange(len(order), dtype=np.int64)
    seg_base = np.maximum.accumulate(np.where(seg_start, idx, 0))
    last_fill = np.maximum.accumulate(np.where(reads, np.int64(-1), idx))
    filled = last_fill >= seg_base
    held = np.where(filled, line[ev_row[np.maximum(last_fill, 0)]],
                    init_lines[sl])
    row_line = np.full(2 * n, -1, dtype=np.int64)
    row_line[ev_row[reads]] = held[reads]
    row_init = np.zeros(2 * n, dtype=bool)
    row_init[ev_row[reads]] = ~filled[reads]
    written = row_line >= 0
    # Each touched slot's last fill, for table-state write-back.
    end_filled = np.append(seg_start[1:], True) & filled

    # Each row is one address segment over ``codes``.  This run's fills
    # store the program's true codes: ``code_of_addr``, then one line of
    # non-branch padding, which a stored line at or past the end of the
    # text segment reads instead.  Slots still in their pre-run state
    # supply the codes they were seeded with (``init_codes``, after the
    # padding).  A never-written slot gives an empty segment.
    text = len(compiled.code_of_addr)
    codes = np.concatenate([compiled.code_of_addr,
                            np.zeros(line_size, dtype=np.uint8),
                            init_codes.ravel()])
    if 2 * n >= MAX_INDEX or len(codes) >= MAX_INDEX:
        raise ValueError("stale BIT reads exceed 2**31 addresses")
    row_start = np.where(
        row_init, text + line_size + line % n_entries * line_size,
        np.minimum(row_line * line_size, text))
    row_start[0::2] += start % line_size
    row_start = np.where(written, row_start, 0).astype(np.int32)
    segs = read_rows(codes, row_start,
                     np.where(written, span, 0).astype(np.int32),
                     width).reads(codes, row_start)
    return StaleWindows(
        reads=_join_line_reads(segs, span1), accesses=len(rows),
        stale_hits=int(np.count_nonzero(written & (row_line != line))),
        final_slots=sl[end_filled], final_lines=held[end_filled])


def _join_line_reads(segs: ReadList, span1: np.ndarray) -> ReadList:
    """Fold rows ``2b`` and ``2b + 1`` of ``segs`` into block b's row.

    The second line's reads count only while the first has no stop;
    they move ``span1`` columns on and rank after the first line's.
    """
    n = len(span1)
    stop_code0 = segs.stop_code[0::2]
    stop_code1 = segs.stop_code[1::2]
    is_open = stop_code0 == CODE_NONBRANCH
    # Per row: whether its reads count, and how far its columns and
    # ranks move.  First-line rows count as they are.
    counts = np.ones(2 * n, dtype=bool)
    counts[1::2] = is_open
    col_shift = np.zeros(2 * n, dtype=segs.col.dtype)
    col_shift[1::2] = span1
    rank_shift = np.zeros(2 * n, dtype=segs.rank.dtype)
    rank_shift[1::2] = segs.n_before[0::2]
    keep = counts[segs.block]
    rows = segs.block[keep]
    stop_col = np.where(is_open & (stop_code1 != CODE_NONBRANCH),
                        col_shift[1::2] + segs.stop_col[1::2],
                        segs.stop_col[0::2])
    return ReadList(
        block=rows >> 1, col=segs.col[keep] + col_shift[rows],
        code=segs.code[keep], rank=segs.rank[keep] + rank_shift[rows],
        stop_col=stop_col, stop_code=np.where(is_open, stop_code1,
                                              stop_code0),
        n_before=segs.n_before[0::2] + np.where(
            is_open, segs.n_before[1::2], np.uint8(0)))


# ----------------------------------------------------------------------
# Keyed replay of select tables and target arrays
# ----------------------------------------------------------------------

def replay_last_write(keys: np.ndarray, values: np.ndarray,
                      writes: np.ndarray, init: np.ndarray):
    """Replay a keyed observe-then-maybe-write event stream.

    Event ``i`` (in time order) observes the state stored under
    ``keys[i]`` *before* the event, then — when ``writes[i]`` — stores
    ``values[i]`` there.  Returns ``(observed, final_keys,
    final_values)``: the per-event observations plus the final state of
    every key that received at least one write event (``final_keys``
    ascending).  A write event always counts, even when it stores the
    value already present: the scalar engines replace cold ``None``
    entries with real objects on every write, and state parity requires
    mirroring that.

    Select tables and NLS target arrays are tag-less direct-mapped
    stores, so grouping events by key with a stable sort and resolving
    each observation to the latest preceding write inside its key
    segment (a segmented running maximum) replays them exactly.
    """
    m = int(keys.shape[0])
    if m == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    order = _grouping_order(keys)
    k_s = keys[order]
    w_s = writes[order]
    v_s = values[order]
    idx = np.arange(m, dtype=np.int64)
    seg_start = np.ones(m, dtype=bool)
    seg_start[1:] = k_s[1:] != k_s[:-1]
    # Index of each event's segment start (its key's first event).
    seg_first = np.maximum.accumulate(np.where(seg_start, idx, np.int64(0)))
    # Index of the latest write event at or before each position.
    last_w = np.maximum.accumulate(np.where(w_s, idx, np.int64(-1)))
    prev = np.empty(m, dtype=np.int64)
    prev[0] = -1
    prev[1:] = last_w[:-1]
    # A preceding write is visible only when it falls inside the same
    # key segment; otherwise the event reads the seeded initial state.
    valid = prev >= seg_first
    observed_s = np.where(valid, v_s[np.maximum(prev, np.int64(0))],
                          init[k_s])
    observed = np.empty(m, dtype=np.int64)
    observed[order] = observed_s
    seg_end = np.ones(m, dtype=bool)
    seg_end[:-1] = seg_start[1:]
    written = seg_end & (last_w >= seg_first)
    final_keys = np.asarray(k_s[written], dtype=np.int64)
    final_values = np.asarray(v_s[np.maximum(last_w, np.int64(0))][written],
                              dtype=np.int64)
    return observed, final_keys, final_values


def _count_below(values: np.ndarray, ends: np.ndarray,
                 bounds: np.ndarray) -> np.ndarray:
    """``#{j < ends[q] : values[j] < bounds[q]}`` for every query ``q``.

    ``values`` lie in ``[-1, len(values))``.  The prefix ``[0, x)`` is
    the union of one aligned block of size ``2**k`` per set bit ``k`` of
    ``x``; each level keeps ``values`` sorted inside its blocks (as one
    globally sorted array of ``block * span + value`` keys), so a block's
    count is a single ``searchsorted``.  Level ``k`` is built from level
    ``k - 1`` by relabelling blocks and merging adjacent sorted runs.
    """
    m = int(values.shape[0])
    levels = max(1, m.bit_length())
    span = np.int64(m + 2)  # shifted values lie in [0, m + 1]
    shifted = np.full(1 << levels, m + 1, dtype=np.int64)
    shifted[:m] = values + 1
    keyed = np.arange(1 << levels, dtype=np.int64) * span + shifted
    total = np.zeros(ends.shape[0], dtype=np.int64)
    for k in range(levels):
        if k:
            keyed = (keyed // span >> 1) * span + keyed % span
            keyed.sort(kind="stable")  # merges adjacent sorted runs
        hit = ((ends >> k) & 1).astype(bool)
        if hit.any():
            block = (ends[hit] >> k) - 1
            total[hit] += (np.searchsorted(keyed, block * span
                                           + bounds[hit] + 1)
                           - (block << k))
    return total


def lru_resident(groups: np.ndarray, keys: np.ndarray,
                 associativity: int) -> np.ndarray:
    """Whether each LRU touch finds its key resident, for a whole run.

    Touch ``i`` (in time order) references ``keys[i]`` in the LRU set
    ``groups[i]`` (a key always lives in the same set), which holds at
    most ``associativity`` keys and evicts the least recently touched.
    A key is resident before touch ``i`` iff it was touched before, at
    ``p``, and fewer than ``associativity`` distinct keys of its set
    were touched in between — and that count is ``#{j in (p, i) :
    prev(j) < p}``, each distinct key counted at its first touch after
    ``p``.  Warm sets are replayed by passing their contents as leading
    touches, least recently used first.
    """
    m = int(keys.shape[0])
    if m == 0:
        return np.zeros(0, dtype=bool)
    # Set-major order keeps each set's touches contiguous and in time
    # order, so between-touch ranges never leave their set.
    order = _grouping_order(groups)
    k_s = keys[order]
    by_key = _grouping_order(k_s)
    same = k_s[by_key[1:]] == k_s[by_key[:-1]]
    prev = np.full(m, -1, dtype=np.int64)
    prev[by_key[1:][same]] = by_key[:-1][same]
    resident = prev >= 0
    idx = np.arange(m, dtype=np.int64)
    # Fewer touches than ways in between: resident without counting.
    far = np.nonzero(resident & (idx - prev > associativity))[0]
    if far.shape[0]:
        # One pass over the sorted levels answers both prefix ends.
        p = prev[far]
        below = _count_below(prev, np.concatenate((far, p + 1)),
                             np.concatenate((p, p)))
        between = below[:far.shape[0]] - below[far.shape[0]:]
        resident[far] = between < associativity
    out = np.empty(m, dtype=bool)
    out[order] = resident
    return out
