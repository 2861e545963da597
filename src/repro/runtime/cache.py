"""Persistent on-disk trace and segmentation cache.

Interpreting a workload analog is by far the most expensive step of any
sweep: every experiment re-executes 18 programs for ``REPRO_TRACE_LEN``
instructions before a single prediction is made.  This module persists the
three interpreter-derived artifacts — the compressed control-flow
:class:`~repro.trace.record.Trace`, its per-geometry block segmentation
and the compiled block stream the vectorized engines replay — as ``.npz``
files so that warm runs skip the interpreter, the segmenter and the
kernel compile entirely.

Layout and keying:

* Directory: ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``); set it to
  the empty string, ``0``, ``off`` or ``none`` to disable persistence.
* Traces: ``traces/<name>-<budget>-<digest>-v<version>.npz``;
  ``<version>`` is :data:`repro.trace.record.CAPTURE_VERSION`, so
  artifacts from an older capture pipeline are never served.
* Segmentations: ``blocks/<name>-<budget>-<geometry>-<digest>.npz``.
* Compiled engine inputs (the near-block-independent arrays of the
  vectorized kernels' structure-of-arrays block streams, one artifact
  for both near-block views; the per-flag BIT read lists are rebuilt
  on load and never stored):
  ``compiled/<name>-<budget>-<geometry>-<digest>.npz``.
* Stored width: every writer passes its arrays through :func:`narrow`,
  which keeps each non-empty integer array in the narrowest of
  uint8/int8/uint16/int16/uint32/int32 that holds its values, so zlib
  does not compress int64 padding.  The readers cast every array to
  its in-memory dtype, which is narrow too (``int32`` addresses and
  indices, ``int8`` per-block counts:
  :data:`repro.trace.blocks.STREAM_DTYPES` and
  :data:`repro.core.kernels.STORED_DTYPES`), so all-int64 artifacts of
  earlier versions load bit-identically.
* Integrity: every artifact gets a ``<file>.sha256`` sidecar, verified
  on read.
* Corrupt artifacts move to ``quarantine/`` (with a warning) instead of
  being silently re-hit on every run.

``digest`` is a truncated SHA-256 over the workload's *assembled program*
(opcodes, registers, immediates, entry point, data size), so editing a
workload analog automatically invalidates its cached artifacts — there is
no staleness to manage, only garbage to purge (:func:`purge`) or evict
(:func:`evict`, bounded by ``REPRO_CACHE_MAX_BYTES``).

Writes go through a temporary file in the same directory followed by
``os.replace``, so concurrent sweep workers never observe a torn file:
they either miss (and recompute) or read a complete artifact.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import warnings
import zipfile
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..icache.geometry import CacheGeometry
from ..trace.blocks import STREAM_DTYPES, BlockStream
from ..trace.record import CAPTURE_VERSION, Trace
from . import faults

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the cache size (bytes; 'off' = no bound).
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Default cache-size bound applied by :func:`evict`.
DEFAULT_MAX_BYTES = 4 * 1024 ** 3

#: Subdirectory corrupt artifacts are moved into.
QUARANTINE_DIR = "quarantine"

#: Subdirectory earlier versions persisted and nothing reads any more
#: (the exec-generated kernels of the retired compiled backend).
#: :func:`purge` empties it and :func:`evict` drops it first, with the
#: quarantine.
ORPHAN_KERNELS = "compiled/kernels"

#: Suffix of the streamed-capture trace containers earlier versions
#: wrote under ``traces/``; nothing reads them any more, so
#: :func:`evict` ranks them with :data:`ORPHAN_KERNELS`.
ORPHAN_TRACE_SUFFIX = ".chunks"

#: Name part of the per-near-block-flag compilations earlier versions
#: wrote under ``compiled/`` (``-nb0-``/``-nb1-`` before the digest);
#: nothing reads them any more, so :func:`evict` ranks them with
#: :data:`ORPHAN_KERNELS`.
ORPHAN_COMPILED = re.compile(r"-nb[01]-[0-9a-f]+\.npz$")

#: Values of ``REPRO_CACHE_DIR`` that disable the disk cache.
_DISABLED = {"", "0", "off", "none", "disable", "disabled"}

#: Hex digits of the program digest kept in file names.
_DIGEST_LEN = 16

#: Errors treated as artifact corruption when reading.
READ_ERRORS = (OSError, ValueError, KeyError, EOFError,
               zipfile.BadZipFile)

_CHECKSUM_SUFFIX = ".sha256"

#: Stored integer widths :func:`narrow` chooses from, narrowest first.
_NARROW_DTYPES = tuple(np.dtype(t) for t in (
    np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32))


def cache_dir() -> Optional[Path]:
    """The cache root, or ``None`` when persistence is disabled."""
    raw = os.environ.get(CACHE_DIR_ENV)
    if raw is None:
        return Path.home() / ".cache" / "repro"
    if raw.strip().lower() in _DISABLED:
        return None
    return Path(raw)


def enabled() -> bool:
    """True when the persistent cache is active."""
    return cache_dir() is not None


def max_cache_bytes() -> Optional[int]:
    """Cache-size bound from ``REPRO_CACHE_MAX_BYTES`` (None = no bound)."""
    raw = os.environ.get(MAX_BYTES_ENV)
    if raw is None:
        return DEFAULT_MAX_BYTES
    text = raw.strip().lower()
    if text in _DISABLED:
        return None
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"{MAX_BYTES_ENV} must be a byte count or 'off', "
            f"got {raw!r}") from None
    if value < 0:
        raise ValueError(
            f"{MAX_BYTES_ENV} must not be negative, got {value}")
    return value


def program_digest(program) -> str:
    """Stable content hash of an assembled program.

    Covers everything that influences the trace: entry point, data size
    and every instruction's opcode/register/immediate/target fields.
    """
    h = hashlib.sha256()
    h.update(f"{program.entry}:{program.data_size}:".encode())
    for inst in program.instructions:
        h.update(
            f"{inst.op.value},{inst.rd},{inst.rs1},{inst.rs2},"
            f"{inst.imm},{inst.target!r};".encode())
    return h.hexdigest()[:_DIGEST_LEN]


def _geometry_key(geometry: CacheGeometry) -> str:
    return (f"{geometry.kind}-w{geometry.block_width}"
            f"-l{geometry.line_size}-b{geometry.n_banks}")


def _trace_path(root: Path, name: str, budget: int, digest: str) -> Path:
    # The capture version is part of the file name *and* embedded in the
    # artifact: renaming the key retires every pre-versioning cache
    # entry, and the embedded stamp catches hand-copied files.
    return (root / "traces" /
            f"{name}-{budget}-{digest}-v{CAPTURE_VERSION}.npz")


def _blocks_path(root: Path, name: str, budget: int,
                 geometry: CacheGeometry, digest: str) -> Path:
    return (root / "blocks" /
            f"{name}-{budget}-{_geometry_key(geometry)}-{digest}.npz")


def _compiled_path(root: Path, name: str, budget: int,
                   geometry: CacheGeometry, digest: str) -> Path:
    return (root / "compiled" /
            f"{name}-{budget}-{_geometry_key(geometry)}-{digest}.npz")


# ----------------------------------------------------------------------
# Stored width
# ----------------------------------------------------------------------

def narrow(array):
    """``array`` in the narrowest integer dtype that holds its values.

    Candidates are uint8, int8, uint16, int16, uint32 and int32, in that
    order; the first whose range covers ``[array.min(), array.max()]``
    and is narrower than ``array`` wins.  Bool, float, string, 0-d and
    empty arrays, and arrays no candidate holds, come back unchanged.
    The conversion is lossless, so a reader restores the original by
    casting back to its in-memory dtype.
    """
    if np.ndim(array) == 0 or array.size == 0 \
            or array.dtype.kind not in "iu":
        return array
    low, high = int(array.min()), int(array.max())
    for dtype in _NARROW_DTYPES:
        if dtype.itemsize >= array.dtype.itemsize:
            break
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return array.astype(dtype)
    return array


def save_narrow(path: Path, **arrays) -> None:
    """``np.savez_compressed`` with every array stored by :func:`narrow`."""
    np.savez_compressed(path, **{key: narrow(value)
                                 for key, value in arrays.items()})


# ----------------------------------------------------------------------
# Integrity: checksums and quarantine
# ----------------------------------------------------------------------

def _checksum_path(path: Path) -> Path:
    return path.with_name(path.name + _CHECKSUM_SUFFIX)


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_checksum(path: Path) -> None:
    side = _checksum_path(path)
    tmp = side.with_name(f"{side.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(_file_sha256(path))
        os.replace(tmp, side)
    except OSError:
        pass  # a missing sidecar only skips verification, never data
    finally:
        tmp.unlink(missing_ok=True)


def _verify_checksum(path: Path) -> Optional[bool]:
    """Three-way integrity verdict for an artifact against its sidecar.

    ``True``: bytes match (or no sidecar exists — artifacts from before
    checksums are accepted; their structural parse still guards against
    truncation).  ``False``: bytes disagree — genuine corruption.
    ``None``: the artifact vanished mid-verification — a concurrent
    :func:`evict` or :func:`quarantine` won the race, and the caller
    should treat the read as a plain miss, *not* corruption.
    """
    side = _checksum_path(path)
    try:
        expected = side.read_text().strip()
    except FileNotFoundError:
        return True
    except OSError:
        return False
    try:
        return _file_sha256(path) == expected
    except FileNotFoundError:
        return None
    except OSError:
        return False


def quarantine(path: Path, reason: str) -> Optional[Path]:
    """Move a corrupt artifact out of the hot path, with a warning.

    Returns the quarantined path (or ``None`` if the file could only be
    deleted).  Either way the corrupt file stops shadowing the cache key,
    so the next run recomputes and rewrites a good artifact instead of
    re-hitting the bad one forever.
    """
    root = cache_dir()
    dest: Optional[Path] = None
    if root is not None:
        qdir = root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / path.name
            os.replace(path, dest)
        except FileNotFoundError:
            # Another process evicted or quarantined it first; the key
            # no longer shadows the cache, so there is nothing to report
            # — warning here would turn one corrupt file into a storm.
            _checksum_path(path).unlink(missing_ok=True)
            return None
        except OSError:
            dest = None
    if dest is None:
        try:
            path.unlink(missing_ok=True)
        except OSError:
            return None
    _checksum_path(path).unlink(missing_ok=True)
    warnings.warn(
        f"quarantined corrupt cache artifact {path.name} ({reason}); "
        f"it will be recomputed", RuntimeWarning, stacklevel=4)
    return dest


def _read_artifact(path: Path, loader: Callable[[Path], object],
                   kind: str, name: str):
    """Load an artifact, quarantining corruption instead of re-hitting it.

    Returns ``None`` on a plain miss or after quarantining a corrupt
    file — the caller recomputes either way.
    """
    if not path.exists():
        return None
    faults.corrupt_artifact(path, kind, name)
    verdict = _verify_checksum(path)
    if verdict is None:
        return None  # lost a race with eviction: clean miss
    if not verdict:
        quarantine(path, "checksum mismatch")
        return None
    try:
        return loader(path)
    except FileNotFoundError:
        return None  # vanished between verify and open: clean miss
    except READ_ERRORS as exc:
        quarantine(path, f"unreadable: {exc!r}")
        return None


def _atomic_write(path: Path, save) -> None:
    """Write via ``save(tmp_path)`` then atomically rename into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # The tmp name keeps the .npz suffix so numpy does not append one.
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
    try:
        save(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _write_checksum(path)


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------

def load_trace(name: str, budget: int, digest: str) -> Optional[Trace]:
    """Read a cached trace, or ``None`` on a miss (or quarantined file)."""
    root = cache_dir()
    if root is None:
        return None
    path = _trace_path(root, name, budget, digest)
    return _read_artifact(path, Trace.load, "trace", name)


def store_trace(trace: Trace, name: str, budget: int, digest: str) -> None:
    """Persist a trace (no-op when the cache is disabled)."""
    root = cache_dir()
    if root is None:
        return
    _atomic_write(_trace_path(root, name, budget, digest), trace.save)


# ----------------------------------------------------------------------
# Block segmentations
# ----------------------------------------------------------------------

def load_blocks(trace: Trace, geometry: CacheGeometry, name: str,
                budget: int, digest: str) -> Optional[BlockStream]:
    """Read a cached segmentation and rebind it to ``trace``/``geometry``."""
    root = cache_dir()
    if root is None:
        return None
    path = _blocks_path(root, name, budget, geometry, digest)

    def load(source: Path) -> Optional[BlockStream]:
        with np.load(source) as data:
            if int(data["n_records"]) != trace.n_records:
                return None  # stale artifact from a different trace
            return BlockStream(trace=trace, geometry=geometry, **{
                field: data[field].astype(dtype, copy=False)
                for field, dtype in STREAM_DTYPES.items()})

    return _read_artifact(path, load, "blocks", name)


def store_blocks(blocks: BlockStream, name: str, budget: int,
                 digest: str) -> None:
    """Persist a segmentation (no-op when the cache is disabled)."""
    root = cache_dir()
    if root is None:
        return
    path = _blocks_path(root, name, budget, blocks.geometry, digest)

    def save(tmp: Path) -> None:
        save_narrow(
            tmp,
            n_records=np.int64(blocks.trace.n_records),
            start=blocks.start,
            n_instr=blocks.n_instr,
            exit_kind=blocks.exit_kind,
            exit_target=blocks.exit_target,
            first_rec=blocks.first_rec,
            n_recs=blocks.n_recs,
        )

    _atomic_write(path, save)


# ----------------------------------------------------------------------
# Compiled block streams (structure-of-arrays engine inputs)
# ----------------------------------------------------------------------

def load_compiled(name: str, budget: int, geometry: CacheGeometry,
                  digest: str, n_records: int) -> Optional[dict]:
    """Read a cached kernel compilation base as a dict of arrays.

    Returns ``None`` on a miss, on a quarantined file, or when the
    artifact was compiled from a trace with a different record count
    (stale relative to the caller's trace).
    """
    root = cache_dir()
    if root is None:
        return None
    path = _compiled_path(root, name, budget, geometry, digest)

    def load(source: Path) -> Optional[dict]:
        with np.load(source) as data:
            if int(data["n_records"]) != n_records:
                return None  # stale artifact from a different trace
            return {key: data[key] for key in data.files
                    if key != "n_records"}

    return _read_artifact(path, load, "compiled", name)


def store_compiled(arrays: dict, name: str, budget: int,
                   geometry: CacheGeometry, digest: str,
                   n_records: int) -> None:
    """Persist a kernel compilation (no-op when the cache is disabled)."""
    root = cache_dir()
    if root is None:
        return
    path = _compiled_path(root, name, budget, geometry, digest)

    def save(tmp: Path) -> None:
        save_narrow(tmp, n_records=np.int64(n_records), **arrays)

    _atomic_write(path, save)


# ----------------------------------------------------------------------
# Maintenance
# ----------------------------------------------------------------------

def purge() -> int:
    """Delete every cached artifact; returns the number removed.

    Covers traces, segmentations, quarantined files, checksum sidecars,
    sweep journals and the orphans (:data:`ORPHAN_KERNELS`,
    :data:`ORPHAN_TRACE_SUFFIX` containers, :data:`ORPHAN_COMPILED`
    compilations).  Only this module's own subdirectories are touched,
    so an unrelated ``REPRO_CACHE_DIR`` cannot lose foreign files.
    Sidecars are deleted but not counted — the return value is the
    number of artifacts, matching pre-checksum behaviour.
    """
    root = cache_dir()
    if root is None:
        return 0
    removed = 0
    for sub in ("traces", "blocks", "compiled", QUARANTINE_DIR,
                ORPHAN_KERNELS):
        directory = root / sub
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            if not path.is_file():
                continue
            try:
                path.unlink()
            except OSError:
                continue
            if not path.name.endswith(_CHECKSUM_SUFFIX):
                removed += 1
    journal_root = root / "journal"
    if journal_root.is_dir():
        for entry in journal_root.iterdir():
            if entry.is_dir():
                count = sum(1 for p in entry.glob("cell-*.pkl"))
                shutil.rmtree(entry, ignore_errors=True)
                if not entry.exists():
                    removed += count
    return removed


def evict(limit: Optional[int] = None) -> int:
    """Delete oldest artifacts until the cache fits a byte budget.

    ``limit`` defaults to ``REPRO_CACHE_MAX_BYTES`` (4 GiB unless set;
    ``off`` disables the bound).  Quarantined files,
    :data:`ORPHAN_KERNELS`, :data:`ORPHAN_TRACE_SUFFIX` containers and
    :data:`ORPHAN_COMPILED` compilations are evicted first — nothing
    reads them — then traces, segmentations and compilations by oldest
    modification time.  Returns the number of artifacts removed.
    """
    root = cache_dir()
    if root is None:
        return 0
    if limit is None:
        limit = max_cache_bytes()
    if limit is None:
        return 0

    entries: List[Tuple[int, float, Path, int]] = []
    total = 0
    for sub, rank in ((QUARANTINE_DIR, 0), (ORPHAN_KERNELS, 0),
                      ("traces", 1), ("blocks", 1), ("compiled", 1)):
        directory = root / sub
        if not directory.is_dir():
            continue
        for path in directory.iterdir():
            if not path.is_file() \
                    or path.name.endswith(_CHECKSUM_SUFFIX):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            size = stat.st_size
            side = _checksum_path(path)
            if side.exists():
                try:
                    size += side.stat().st_size
                except OSError:
                    pass
            total += size
            orphan = (path.suffix == ORPHAN_TRACE_SUFFIX
                      or ORPHAN_COMPILED.search(path.name) is not None)
            entries.append((0 if orphan else rank, stat.st_mtime, path,
                            size))

    removed = 0
    for rank, _, path, size in sorted(entries, key=lambda e: e[:2]):
        if total <= limit:
            break
        try:
            path.unlink(missing_ok=True)
            _checksum_path(path).unlink(missing_ok=True)
        except OSError:
            continue
        total -= size
        removed += 1
    return removed
