"""Persistent on-disk trace and segmentation cache.

Interpreting a workload analog is by far the most expensive step of any
sweep: every experiment re-executes 18 programs for ``REPRO_TRACE_LEN``
instructions before a single prediction is made.  This module persists the
three interpreter-derived artifacts — the compressed control-flow
:class:`~repro.trace.record.Trace`, its per-geometry block segmentation
and the compiled block stream the vectorized engines replay — so that
warm runs skip the interpreter, the segmenter and the kernel compile
entirely.

Layout and keying:

* Directory: ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``); set it to
  the empty string, ``0``, ``off`` or ``none`` to disable persistence.
* Traces: ``traces/<name>-<budget>-<digest>-v<version>.npyrec``;
  ``<version>`` is :data:`repro.trace.record.CAPTURE_VERSION`, so
  artifacts from an older capture pipeline are never served.
* Segmentations: ``blocks/<name>-<budget>-<geometry>-<digest>.npyrec``.
* Compiled engine inputs (the near-block-independent arrays of the
  vectorized kernels' structure-of-arrays block streams, one artifact
  for both near-block views; the BIT read lists are rebuilt on load and
  never stored):
  ``compiled/<name>-<budget>-<geometry>-<digest>.npyrec``.
* Container: every artifact is one uncompressed file of named NPY
  records (:func:`write_records`, :func:`read_records`).  A reader
  takes the file in one read, checks its checksum on those bytes and
  parses the arrays from the same buffer.  Nothing is deflated or
  inflated: the derived tiers cost less to recompute than to
  decompress, so only an uncompressed read keeps them worth caching.
* Stored width: every writer passes its arrays through :func:`narrow`,
  which keeps each non-empty integer array in the narrowest of
  uint8/int8/uint16/int16/uint32/int32 that holds its values, so no
  record holds int64 padding.  The readers cast every array to its
  in-memory dtype, which is narrow too (``int32`` addresses and
  indices, ``int8`` per-block counts:
  :data:`repro.trace.blocks.STREAM_DTYPES` and
  :data:`repro.core.kernels.STORED_DTYPES`), so all-int64 records load
  bit-identically.
* Integrity: every artifact gets a ``<file>.sha256`` sidecar, verified
  on read.
* Corrupt artifacts move to ``quarantine/`` (with a warning) instead of
  being silently re-hit on every run.
* Orphans: files earlier versions wrote under ``traces/``, ``blocks/``
  and ``compiled/`` in another container (:data:`ORPHAN_SUFFIXES`) are
  never read; :func:`evict` drops them first and :func:`purge` removes
  them.

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
import struct
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

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

#: File suffix of every artifact: one container of NPY records.
ARTIFACT_SUFFIX = ".npyrec"

#: Suffixes of the containers earlier versions wrote under ``traces/``,
#: ``blocks/`` and ``compiled/`` (deflated ``.npz`` archives and the
#: streamed-capture ``.chunks``); nothing reads them any more, so
#: :func:`evict` ranks them with :data:`ORPHAN_KERNELS`.
ORPHAN_SUFFIXES = (".npz", ".chunks")

#: Values of ``REPRO_CACHE_DIR`` that disable the disk cache.
_DISABLED = {"", "0", "off", "none", "disable", "disabled"}

#: Hex digits of the program digest kept in file names.
_DIGEST_LEN = 16

#: Errors treated as artifact corruption when reading.
READ_ERRORS = (OSError, ValueError, KeyError, EOFError)

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
            f"{name}-{budget}-{digest}-v{CAPTURE_VERSION}{ARTIFACT_SUFFIX}")


def _blocks_path(root: Path, name: str, budget: int,
                 geometry: CacheGeometry, digest: str) -> Path:
    return (root / "blocks" /
            f"{name}-{budget}-{_geometry_key(geometry)}-{digest}"
            f"{ARTIFACT_SUFFIX}")


def _compiled_path(root: Path, name: str, budget: int,
                   geometry: CacheGeometry, digest: str) -> Path:
    return (root / "compiled" /
            f"{name}-{budget}-{_geometry_key(geometry)}-{digest}"
            f"{ARTIFACT_SUFFIX}")


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


def save_narrow(path: Path, **arrays) -> str:
    """Write ``arrays`` to ``path``, each stored by :func:`narrow`.

    The file is one :func:`write_records` container; returns the
    SHA-256 hex digest of the bytes written.
    """
    with open(path, "wb") as handle:
        writer = _HashingWriter(handle)
        write_records(writer, {key: narrow(value)
                               for key, value in arrays.items()})
    return writer.sha256.hexdigest()


# ----------------------------------------------------------------------
# Container: named NPY records
# ----------------------------------------------------------------------

#: First bytes of every artifact: the container's name and version.
_MAGIC = b"repro-npy-records-1\n"

#: Byte count of a record's UTF-8 name, in front of the name.
_NAME_LEN = struct.Struct("<H")

#: NPY format version of every record.
_NPY_VERSION = (1, 0)

#: Magic, version and header length opening an NPY 1.0 record.
_NPY_PREFIX = struct.Struct("<6sBBH")

#: The header ``np.lib.format.write_array`` writes for a C-ordered array
#: of a plain dtype; the reader accepts no other.
_NPY_HEADER = re.compile(
    rb"\{'descr': '([^']+)', 'fortran_order': False, "
    rb"'shape': \(([0-9, ]*)\), \} *\n")


class _HashingWriter:
    """A binary file wrapper that hashes every byte written through it."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.handle.write(data)


def write_records(handle, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to a binary file as one container of NPY records.

    The container is a magic line followed, per array, by its name (a
    little-endian ``uint16`` byte count, then UTF-8) and the array as an
    NPY 1.0 record (``np.lib.format.write_array``, no pickles).  Arrays
    are written as given and uncompressed; :func:`read_records` parses
    the result.
    """
    handle.write(_MAGIC)
    for key, value in arrays.items():
        name = key.encode()
        handle.write(_NAME_LEN.pack(len(name)) + name)
        np.lib.format.write_array(handle, np.asarray(value),
                                  version=_NPY_VERSION, allow_pickle=False)


def read_records(data: bytes) -> Dict[str, np.ndarray]:
    """The arrays of a :func:`write_records` container held in ``data``.

    Each array is a read-only view of ``data``: nothing is copied or
    inflated.  A container that is truncated, has trailing bytes,
    repeats a name or holds anything but a C-ordered array of a plain
    dtype raises :class:`ValueError`.
    """
    view = memoryview(data)
    size = len(view)
    if bytes(view[:len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a record container")
    records: Dict[str, np.ndarray] = {}
    pos = len(_MAGIC)
    while pos < size:
        if pos + _NAME_LEN.size > size:
            raise ValueError(f"truncated record at byte {pos}")
        (length,) = _NAME_LEN.unpack_from(view, pos)
        pos += _NAME_LEN.size
        name = bytes(view[pos:pos + length]).decode()
        pos += length
        if pos + _NPY_PREFIX.size > size:
            raise ValueError(f"record {name!r} is truncated")
        magic, major, minor, header_len = _NPY_PREFIX.unpack_from(view, pos)
        pos += _NPY_PREFIX.size
        header = _NPY_HEADER.fullmatch(bytes(view[pos:pos + header_len]))
        if magic != b"\x93NUMPY" or (major, minor) != _NPY_VERSION \
                or header is None:
            raise ValueError(f"record {name!r} has no NPY 1.0 header")
        dtype = np.dtype(header[1].decode())
        if dtype.hasobject:
            raise ValueError(f"record {name!r} holds objects")
        shape = tuple(int(dim) for dim in header[2].split(b",")
                      if dim.strip())
        count = int(np.prod(shape, dtype=np.int64))
        pos += header_len
        end = pos + count * dtype.itemsize
        if end > size:
            raise ValueError(f"record {name!r} is truncated")
        if name in records:
            raise ValueError(f"record {name!r} appears twice")
        records[name] = np.frombuffer(view, dtype=dtype, count=count,
                                      offset=pos).reshape(shape)
        pos = end
    return records


# ----------------------------------------------------------------------
# Integrity: checksums and quarantine
# ----------------------------------------------------------------------

def _checksum_path(path: Path) -> Path:
    return path.with_name(path.name + _CHECKSUM_SUFFIX)


def _write_checksum(path: Path, digest: str) -> None:
    side = _checksum_path(path)
    tmp = side.with_name(f"{side.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(digest)
        os.replace(tmp, side)
    except OSError:
        pass  # a missing sidecar only skips verification, never data
    finally:
        tmp.unlink(missing_ok=True)


def _read_verified(path: Path) -> Optional[bytes]:
    """An artifact's bytes, read once and checked against its sidecar.

    ``None`` when the artifact does not exist, or vanished before the
    read — a concurrent :func:`evict` or :func:`quarantine` won the
    race, and the caller should treat the read as a plain miss, *not*
    corruption.  Without a sidecar (artifacts from before checksums, or
    a sidecar evicted after the read) the bytes are returned unchecked;
    their structural parse still guards against truncation.  Raises
    :class:`ValueError` when the bytes disagree with the sidecar.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        expected = _checksum_path(path).read_text().strip()
    except FileNotFoundError:
        return data
    if hashlib.sha256(data).hexdigest() != expected:
        raise ValueError("checksum mismatch")
    return data


def quarantine(path: Path, reason: str) -> Optional[Path]:
    """Move a corrupt artifact out of the hot path, with a warning.

    Returns the quarantined path, ``quarantine/<tier>.<file name>`` (or
    ``None`` if the file could only be deleted): the tier keeps a
    segmentation and a compilation of one key, whose file names agree,
    apart.  Either way the corrupt file stops shadowing the cache key,
    so the next run recomputes and rewrites a good artifact instead of
    re-hitting the bad one forever.
    """
    root = cache_dir()
    dest: Optional[Path] = None
    if root is not None:
        qdir = root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            dest = qdir / f"{path.parent.name}.{path.name}"
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


def _read_artifact(path: Path,
                   loader: Callable[[Dict[str, np.ndarray]], object],
                   kind: str, name: str):
    """Load an artifact, quarantining corruption instead of re-hitting it.

    The file is read once: its checksum is verified on those bytes and
    ``loader`` gets the arrays :func:`read_records` parses from them.
    Returns ``None`` on a plain miss or after quarantining a corrupt
    file — the caller recomputes either way.
    """
    faults.corrupt_artifact(path, kind, name)
    try:
        data = _read_verified(path)
        if data is None:
            return None
        return loader(read_records(data))
    except READ_ERRORS as exc:
        quarantine(path, f"unreadable: {exc!r}")
        return None


def _atomic_write(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    """Write ``arrays`` via a temporary file, then rename into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp{path.suffix}")
    try:
        digest = save_narrow(tmp, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _write_checksum(path, digest)


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------

def load_trace(name: str, budget: int, digest: str) -> Optional[Trace]:
    """Read a cached trace, or ``None`` on a miss (or quarantined file)."""
    root = cache_dir()
    if root is None:
        return None
    path = _trace_path(root, name, budget, digest)
    return _read_artifact(path, Trace.from_arrays, "trace", name)


def store_trace(trace: Trace, name: str, budget: int, digest: str) -> None:
    """Persist a trace (no-op when the cache is disabled)."""
    root = cache_dir()
    if root is None:
        return
    _atomic_write(_trace_path(root, name, budget, digest), trace.arrays())


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

    def load(data: Dict[str, np.ndarray]) -> Optional[BlockStream]:
        if int(data["n_records"]) != trace.n_records:
            return None  # stale artifact from a different trace
        return BlockStream(trace=trace, geometry=geometry, **{
            field: data[field].astype(dtype)
            for field, dtype in STREAM_DTYPES.items()})

    return _read_artifact(path, load, "blocks", name)


def store_blocks(blocks: BlockStream, name: str, budget: int,
                 digest: str) -> None:
    """Persist a segmentation (no-op when the cache is disabled)."""
    root = cache_dir()
    if root is None:
        return
    path = _blocks_path(root, name, budget, blocks.geometry, digest)
    _atomic_write(path, {
        "n_records": np.int64(blocks.trace.n_records),
        **{field: getattr(blocks, field) for field in STREAM_DTYPES}})


# ----------------------------------------------------------------------
# Compiled block streams (structure-of-arrays engine inputs)
# ----------------------------------------------------------------------

def load_compiled(name: str, budget: int, geometry: CacheGeometry,
                  digest: str, n_records: int) -> Optional[dict]:
    """Read a cached kernel compilation base as a dict of arrays.

    Returns ``None`` on a miss, on a quarantined file, or when the
    artifact was compiled from a trace with a different record count
    (stale relative to the caller's trace).  The arrays are read-only
    views of the file's bytes, at their stored widths: the caller casts
    (and so copies) what it keeps.
    """
    root = cache_dir()
    if root is None:
        return None
    path = _compiled_path(root, name, budget, geometry, digest)

    def load(data: Dict[str, np.ndarray]) -> Optional[dict]:
        if int(data.pop("n_records")) != n_records:
            return None  # stale artifact from a different trace
        return data

    return _read_artifact(path, load, "compiled", name)


def store_compiled(arrays: dict, name: str, budget: int,
                   geometry: CacheGeometry, digest: str,
                   n_records: int) -> None:
    """Persist a kernel compilation (no-op when the cache is disabled)."""
    root = cache_dir()
    if root is None:
        return
    _atomic_write(_compiled_path(root, name, budget, geometry, digest),
                  {"n_records": np.int64(n_records), **arrays})


# ----------------------------------------------------------------------
# Maintenance
# ----------------------------------------------------------------------

def purge() -> int:
    """Delete every cached artifact; returns the number removed.

    Covers traces, segmentations, compilations, quarantined files,
    checksum sidecars, sweep journals and the orphans
    (:data:`ORPHAN_KERNELS`, :data:`ORPHAN_SUFFIXES` containers).  Only
    this module's own subdirectories are touched, so an unrelated
    ``REPRO_CACHE_DIR`` cannot lose foreign files.  Sidecars are deleted
    but not counted — the return value is the number of artifacts,
    matching pre-checksum behaviour.
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
    :data:`ORPHAN_KERNELS` and :data:`ORPHAN_SUFFIXES` containers are
    evicted first — nothing reads them — then traces, segmentations
    and compilations by oldest modification time.  Returns the number
    of artifacts removed.
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
            orphan = path.suffix in ORPHAN_SUFFIXES
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
