"""Persistent disk cache: keying, round trips, atomicity, purging."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import envvars
from repro.icache import CacheGeometry
from repro.runtime import cache
from repro.trace import segment_blocks
from repro.trace.record import CAPTURE_VERSION
from repro.workloads import get_workload, load_trace

BUDGET = 5_000
NAME = "compress"
GEOMETRY = CacheGeometry.normal(8)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


@pytest.fixture(scope="module")
def trace():
    return load_trace(NAME, BUDGET)


@pytest.fixture(scope="module")
def digest():
    return cache.program_digest(get_workload(NAME).build())


class TestConfiguration:
    def test_default_is_home_cache(self, monkeypatch):
        monkeypatch.delenv(cache.CACHE_DIR_ENV, raising=False)
        root = cache.cache_dir()
        assert root is not None
        assert root.parts[-2:] == (".cache", "repro")

    @pytest.mark.parametrize("value", ["", "0", "off", "none", "OFF"])
    def test_disabling_values(self, monkeypatch, value):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, value)
        assert cache.cache_dir() is None
        assert not cache.enabled()

    def test_explicit_directory(self, cache_dir):
        assert cache.cache_dir() == cache_dir
        assert cache.enabled()

    def test_disabled_cache_is_inert(self, monkeypatch, trace, digest):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, "off")
        cache.store_trace(trace, NAME, BUDGET, digest)
        assert cache.load_trace(NAME, BUDGET, digest) is None
        assert cache.purge() == 0


class TestDigest:
    def test_stable_across_builds(self):
        a = cache.program_digest(get_workload(NAME).build())
        b = cache.program_digest(get_workload(NAME).build())
        assert a == b

    def test_differs_between_programs(self):
        a = cache.program_digest(get_workload("compress").build())
        b = cache.program_digest(get_workload("go").build())
        assert a != b


TRACE_FIELDS = ("pc", "kind", "taken", "target")
BLOCK_FIELDS = ("start", "n_instr", "exit_kind", "exit_target",
                "first_rec", "n_recs")


def assert_same_arrays(loaded, original, fields):
    """Each field round-trips with its values *and* in-memory dtype."""
    for field in fields:
        restored = getattr(loaded, field)
        expected = getattr(original, field)
        assert restored.dtype == expected.dtype, field
        np.testing.assert_array_equal(restored, expected, err_msg=field)


class TestNarrow:
    """The stored-width rule every cache writer applies."""

    @pytest.mark.parametrize("values, dtype", [
        ([0, 255], np.uint8),
        ([0, 256], np.uint16),
        ([-128, 127], np.int8),
        ([-129, 0], np.int16),
        ([-1, 200], np.int16),
        ([0, 65_535], np.uint16),
        ([0, 65_536], np.uint32),
        ([-1, 65_535], np.int32),
        ([0, 2 ** 32 - 1], np.uint32),
        ([-1, 2 ** 31 - 1], np.int32),
        ([-2 ** 31, 0], np.int32),
    ])
    def test_picks_narrowest_width(self, values, dtype):
        array = np.array(values, dtype=np.int64)
        stored = cache.narrow(array)
        assert stored.dtype == dtype
        np.testing.assert_array_equal(stored.astype(np.int64), array)

    def test_negative_sentinel_kept(self):
        exit_target = np.array([-1, 17, -1, 4], dtype=np.int64)
        stored = cache.narrow(exit_target)
        assert stored.dtype == np.int8
        np.testing.assert_array_equal(stored, exit_target)

    @pytest.mark.parametrize("values", [
        [-1, 2 ** 31], [0, 2 ** 32], [-2 ** 31 - 1, 0], [0, 2 ** 62]])
    def test_beyond_int32_stays_int64(self, values):
        array = np.array(values, dtype=np.int64)
        assert cache.narrow(array) is array

    @pytest.mark.parametrize("array", [
        np.array([True, False]),
        np.array([0, 3, 255], dtype=np.uint8),
        np.array([-5, 5], dtype=np.int8),
        np.array([0.5, 2.0]),
        np.zeros(0, dtype=np.int64),
        np.zeros((0, 4), dtype=np.int64),
        np.int64(7),
        np.array(7, dtype=np.int64),
        np.str_("compress"),
    ], ids=["bool", "uint8", "int8", "float", "empty", "empty-2d",
            "scalar", "0-d", "str"])
    def test_passes_through_unchanged(self, array):
        assert cache.narrow(array) is array

    def test_never_widens(self):
        array = np.array([0, 70_000], dtype=np.uint32)
        assert cache.narrow(array) is array
        small = np.array([1, 2], dtype=np.uint16)
        assert cache.narrow(small).dtype == np.uint8


def write_raw(path, **arrays):
    """Write ``arrays`` as one record container, widths as given and no
    sidecar, as a hand-copied or pre-checksum artifact would be."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        cache.write_records(handle, arrays)


def quarantined(cache_dir, path):
    """Where :func:`cache.quarantine` moves the artifact at ``path``."""
    name = f"{path.parent.name}.{path.name}"
    return cache_dir / cache.QUARANTINE_DIR / name


def stored_records(path):
    """The records of an artifact, at their stored widths."""
    return cache.read_records(path.read_bytes())


class TestLegacyWidth:
    """Artifacts of all-int64 records still load bit-exactly."""

    def test_int64_trace_loads(self, cache_dir, trace, digest):
        path = cache._trace_path(cache_dir, NAME, BUDGET, digest)
        write_raw(
            path, capture_version=np.int64(CAPTURE_VERSION),
            entry_pc=np.int64(trace.entry_pc),
            n_instructions=np.int64(trace.n_instructions),
            pc=trace.pc.astype(np.int64),
            kind=trace.kind.astype(np.int64),
            taken=trace.taken, target=trace.target.astype(np.int64),
            truncated=np.bool_(trace.truncated), name=np.str_(trace.name))
        loaded = cache.load_trace(NAME, BUDGET, digest)
        assert loaded is not None
        assert loaded.n_instructions == trace.n_instructions
        assert loaded.entry_pc == trace.entry_pc
        assert_same_arrays(loaded, trace, TRACE_FIELDS)

    def test_int64_blocks_load(self, cache_dir, trace, digest):
        blocks = segment_blocks(trace, GEOMETRY)
        path = cache._blocks_path(cache_dir, NAME, BUDGET, GEOMETRY,
                                  digest)
        write_raw(path, n_records=np.int64(trace.n_records),
                  **{field: getattr(blocks, field).astype(np.int64)
                     for field in BLOCK_FIELDS})
        loaded = cache.load_blocks(trace, GEOMETRY, NAME, BUDGET, digest)
        assert loaded is not None
        assert_same_arrays(loaded, blocks, BLOCK_FIELDS)


class TestContainer:
    """The one container every tier stores: named NPY records."""

    ARRAYS = {
        "scalar": np.int64(7), "flags": np.array([True, False]),
        "narrow": np.arange(5, dtype=np.int8),
        "wide": np.array([-1, 2 ** 40], dtype=np.int64),
        "empty": np.zeros(0, dtype=np.uint16), "name": np.str_("gcc"),
    }

    def _blob(self):
        import io

        buffer = io.BytesIO()
        cache.write_records(buffer, self.ARRAYS)
        return buffer.getvalue()

    def test_round_trip_keeps_values_dtypes_and_order(self):
        records = cache.read_records(self._blob())
        assert list(records) == list(self.ARRAYS)
        for key, value in self.ARRAYS.items():
            assert records[key].dtype == np.asarray(value).dtype, key
            assert records[key].shape == np.shape(value), key
            np.testing.assert_array_equal(records[key], value)
            assert not records[key].flags.writeable, key

    @pytest.mark.parametrize("cut", [1, 30, -9, -1])
    def test_truncated_container_rejected(self, cut):
        blob = self._blob()
        with pytest.raises(ValueError):
            cache.read_records(blob[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError):
            cache.read_records(self._blob() + b"\x00")

    def test_pickled_objects_refused(self):
        import io

        with pytest.raises(ValueError):
            cache.write_records(io.BytesIO(),
                                {"o": np.array([None], dtype=object)})

    def test_duplicate_names_rejected(self):
        import io

        buffer = io.BytesIO()
        cache.write_records(buffer, {"a": np.arange(3)})
        once = buffer.getvalue()
        magic = len(b"repro-npy-records-1\n")
        with pytest.raises(ValueError, match="twice"):
            cache.read_records(once + once[magic:])

    def test_deflated_archive_rejected(self, tmp_path):
        np.savez_compressed(tmp_path / "old.npz", a=np.arange(3))
        with pytest.raises(ValueError, match="not a record container"):
            cache.read_records((tmp_path / "old.npz").read_bytes())


class TestTraceRoundTrip:
    def test_miss_then_hit(self, cache_dir, trace, digest):
        assert cache.load_trace(NAME, BUDGET, digest) is None
        cache.store_trace(trace, NAME, BUDGET, digest)
        loaded = cache.load_trace(NAME, BUDGET, digest)
        assert loaded is not None
        assert loaded.n_instructions == trace.n_instructions
        assert loaded.entry_pc == trace.entry_pc
        assert loaded.truncated == trace.truncated
        assert loaded.name == trace.name
        assert_same_arrays(loaded, trace, TRACE_FIELDS)

    def test_stored_at_narrow_width(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        data = stored_records(path)
        assert data["kind"].dtype == np.uint8
        assert data["taken"].dtype == np.bool_
        assert data["pc"].dtype.itemsize < 8
        assert data["capture_version"].dtype == np.int64

    def test_digest_mismatch_misses(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        assert cache.load_trace(NAME, BUDGET, "0" * 16) is None

    def test_budget_mismatch_misses(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        assert cache.load_trace(NAME, BUDGET + 1, digest) is None

    def test_corrupt_file_is_a_miss(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        path.write_bytes(b"not a zip archive")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.load_trace(NAME, BUDGET, digest) is None

    def test_no_tmp_files_left_behind(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        leftovers = [p for p in (cache_dir / "traces").iterdir()
                     if ".tmp" in p.name]
        assert leftovers == []


class TestBlocksRoundTrip:
    def test_miss_then_hit(self, cache_dir, trace, digest):
        blocks = segment_blocks(trace, GEOMETRY)
        assert cache.load_blocks(trace, GEOMETRY, NAME, BUDGET,
                                 digest) is None
        cache.store_blocks(blocks, NAME, BUDGET, digest)
        loaded = cache.load_blocks(trace, GEOMETRY, NAME, BUDGET, digest)
        assert loaded is not None
        assert loaded.trace is trace
        assert loaded.geometry == GEOMETRY
        assert_same_arrays(loaded, blocks, BLOCK_FIELDS)

    def test_stored_at_narrow_width(self, cache_dir, trace, digest):
        blocks = segment_blocks(trace, GEOMETRY)
        cache.store_blocks(blocks, NAME, BUDGET, digest)
        path, = (cache_dir / "blocks").glob("*.npyrec")
        data = stored_records(path)
        for field in BLOCK_FIELDS:
            assert data[field].dtype.itemsize < 8, field
        assert data["n_records"].dtype == np.int64

    def test_keyed_per_geometry(self, cache_dir, trace, digest):
        blocks = segment_blocks(trace, GEOMETRY)
        cache.store_blocks(blocks, NAME, BUDGET, digest)
        other = CacheGeometry.self_aligned(8)
        assert cache.load_blocks(trace, other, NAME, BUDGET,
                                 digest) is None

    def test_stale_record_count_is_a_miss(self, cache_dir, digest):
        short = load_trace(NAME, 2_000)
        long = load_trace(NAME, BUDGET)
        cache.store_blocks(segment_blocks(short, GEOMETRY), NAME, BUDGET,
                           digest)
        assert cache.load_blocks(long, GEOMETRY, NAME, BUDGET,
                                 digest) is None


class TestIntegrity:
    def test_checksum_sidecar_written(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        side = path.with_name(path.name + ".sha256")
        assert side.exists()
        assert len(side.read_text().strip()) == 64

    def test_tampered_artifact_quarantined(self, cache_dir, trace,
                                           digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # single-bit-ish corruption
        path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.load_trace(NAME, BUDGET, digest) is None
        assert not path.exists()  # no longer shadowing the cache key
        assert quarantined(cache_dir, path).exists()

    def test_quarantined_file_not_rehit(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            cache.load_trace(NAME, BUDGET, digest)
        # Second read is a plain miss — no warning, no re-quarantine.
        assert cache.load_trace(NAME, BUDGET, digest) is None

    def test_legacy_artifact_without_sidecar_loads(self, cache_dir,
                                                   trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        path.with_name(path.name + ".sha256").unlink()
        assert cache.load_trace(NAME, BUDGET, digest) is not None

    def test_stale_capture_version_quarantined(self, cache_dir, trace,
                                               digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        fields = dict(stored_records(path))
        fields["capture_version"] = np.int64(CAPTURE_VERSION - 1)
        write_raw(path, **fields)
        path.with_name(path.name + ".sha256").unlink()
        with pytest.warns(RuntimeWarning, match="capture version"):
            assert cache.load_trace(NAME, BUDGET, digest) is None
        assert not path.exists()
        assert quarantined(cache_dir, path).exists()

    def test_abandoned_tmp_file_is_a_clean_miss(self, cache_dir, digest):
        dest = cache._trace_path(cache_dir, NAME, BUDGET, digest)
        dest.parent.mkdir(parents=True)
        tmp = dest.with_name(
            f".{dest.stem}.{os.getpid()}.tmp{cache.ARTIFACT_SUFFIX}")
        tmp.write_bytes(b"partial capture, never renamed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load_trace(NAME, BUDGET, digest) is None
        assert tmp.exists()  # left for post-mortems, never opened

    @pytest.mark.parametrize("tier", ["traces", "blocks", "compiled"])
    def test_truncated_records_quarantined(self, cache_dir, trace, digest,
                                           tier):
        """Without a sidecar to catch it, the record parse refuses a
        truncated artifact: quarantined, never served."""
        load = self._store(tier, trace, digest)
        path, = (cache_dir / tier).glob("*.npyrec")
        path.write_bytes(path.read_bytes()[:-3])
        cache._checksum_path(path).unlink()
        with pytest.warns(RuntimeWarning, match="truncated"):
            assert load() is None
        assert quarantined(cache_dir, path).exists()

    @pytest.mark.parametrize("tier", ["traces", "blocks"])
    def test_mismatched_record_names_quarantined(self, cache_dir, trace,
                                                 digest, tier):
        load = self._store(tier, trace, digest)
        path, = (cache_dir / tier).glob("*.npyrec")
        renamed = {("x" + key if key in ("pc", "start") else key): value
                   for key, value in stored_records(path).items()}
        write_raw(path, **renamed)
        cache._checksum_path(path).unlink()
        with pytest.warns(RuntimeWarning, match="KeyError"):
            assert load() is None
        assert quarantined(cache_dir, path).exists()

    @staticmethod
    def _store(tier, trace, digest):
        """Store one artifact of ``tier``; returns its loader."""
        if tier == "traces":
            cache.store_trace(trace, NAME, BUDGET, digest)
            return lambda: cache.load_trace(NAME, BUDGET, digest)
        if tier == "blocks":
            cache.store_blocks(segment_blocks(trace, GEOMETRY), NAME,
                               BUDGET, digest)
            return lambda: cache.load_blocks(trace, GEOMETRY, NAME,
                                             BUDGET, digest)
        cache.store_compiled({"limit": np.arange(64)}, NAME, BUDGET,
                             GEOMETRY, digest, trace.n_records)
        return lambda: cache.load_compiled(NAME, BUDGET, GEOMETRY, digest,
                                           trace.n_records)

    def test_corrupt_blocks_quarantined(self, cache_dir, trace, digest):
        cache.store_blocks(segment_blocks(trace, GEOMETRY), NAME,
                           BUDGET, digest)
        path, = (cache_dir / "blocks").glob("*.npyrec")
        path.write_bytes(b"not a zip archive")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.load_blocks(trace, GEOMETRY, NAME, BUDGET,
                                     digest) is None
        assert quarantined(cache_dir, path).exists()


class TestEvict:
    def test_no_bound_is_inert(self, cache_dir, trace, digest,
                               monkeypatch):
        monkeypatch.setenv(cache.MAX_BYTES_ENV, "off")
        cache.store_trace(trace, NAME, BUDGET, digest)
        assert cache.evict() == 0
        assert cache.load_trace(NAME, BUDGET, digest) is not None

    def test_evicts_oldest_until_under_bound(self, cache_dir, trace,
                                             digest):
        import os

        cache.store_trace(trace, NAME, BUDGET, digest)
        cache.store_trace(trace, NAME, BUDGET + 1, digest)
        old, new = sorted((cache_dir / "traces").glob("*.npyrec"),
                          key=lambda p: p.stat().st_mtime)
        os.utime(old, (1, 1))  # deterministic age order
        limit = new.stat().st_size * 2  # room for one artifact, not two
        assert cache.evict(limit) == 1
        assert not old.exists()
        assert new.exists()

    def test_quarantine_evicted_first(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning):
            cache.load_trace(NAME, BUDGET, digest)
        cache.store_trace(trace, NAME, BUDGET, digest)
        # Room for the good artifact (plus sidecar) but not also the
        # quarantined copy: the quarantine must be what goes.
        assert cache.evict(path.stat().st_size + 200) == 1
        assert not any((cache_dir / "quarantine").iterdir())
        assert cache.load_trace(NAME, BUDGET, digest) is not None

    def test_orphaned_kernels_evicted_first(self, cache_dir, trace,
                                            digest):
        kernel = cache_dir / "compiled" / "kernels" / "single-0123.py"
        kernel.parent.mkdir(parents=True)
        kernel.write_text("def kernel():\n    pass\n" * 64)
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        # A streamed-capture container from older versions, newer than
        # the flat trace, with its sidecar.
        chunks = path.with_suffix(".chunks")
        chunks.write_bytes(b"PK" * 512)
        chunks_side = chunks.with_name(chunks.name + ".sha256")
        chunks_side.write_text("0" * 64)
        os.utime(path, (1, 1))  # older than both orphans, still kept
        assert cache.evict(path.stat().st_size + 200) == 2
        assert not kernel.exists()
        assert not chunks.exists()
        assert not chunks_side.exists()
        assert cache.load_trace(NAME, BUDGET, digest) is not None

    def test_per_flag_compilations_evicted_first(self, cache_dir, digest):
        arrays = {"limit": np.arange(4096, dtype=np.int64)}
        cache.store_compiled(arrays, NAME, BUDGET, GEOMETRY, digest, 7)
        path, = (cache_dir / "compiled").glob("*.npyrec")
        # The per-near-block-flag artifacts older versions wrote beside
        # it, newer than the one-artifact layout, with their sidecars.
        stem = path.name[:-len(f"-{digest}{cache.ARTIFACT_SUFFIX}")]
        orphans = [path.with_name(f"{stem}-nb{flag}-{digest}.npz")
                   for flag in (0, 1)]
        for orphan in orphans:
            orphan.write_bytes(b"PK" * 512)
            orphan.with_name(orphan.name + ".sha256").write_text("0" * 64)
        os.utime(path, (1, 1))  # older than both orphans, still kept
        assert cache.evict(path.stat().st_size + 200) == 2
        assert not any(orphan.exists() for orphan in orphans)
        assert not any((cache_dir / "compiled").glob("*-nb*.sha256"))
        data = cache.load_compiled(NAME, BUDGET, GEOMETRY, digest, 7)
        assert np.array_equal(data["limit"], arrays["limit"])

    def test_deflated_artifacts_evicted_first(self, cache_dir, trace,
                                              digest):
        """A deflated ``.npz`` left in any tier by earlier versions is
        an orphan: evicted before every current artifact, however new."""
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        orphans = []
        for sub in ("traces", "blocks", "compiled"):
            orphan = cache_dir / sub / f"{NAME}-{BUDGET}-{digest}.npz"
            orphan.parent.mkdir(exist_ok=True)
            orphan.write_bytes(b"PK" * 512)
            orphan.with_name(orphan.name + ".sha256").write_text("0" * 64)
            orphans.append(orphan)
        os.utime(path, (1, 1))  # older than every orphan, still kept
        assert cache.evict(path.stat().st_size + 200) == 3
        assert not any(orphan.exists() for orphan in orphans)
        assert not any(cache_dir.glob("*/*.npz.sha256"))
        assert cache.load_trace(NAME, BUDGET, digest) is not None

    def test_registry_documents_default_bound(self):
        entry, = [var for var in envvars.REGISTRY
                  if var.name == cache.MAX_BYTES_ENV]
        assert entry.default == f"{cache.DEFAULT_MAX_BYTES // 1024 ** 3} GiB"

    def test_garbage_bound_rejected(self, monkeypatch):
        monkeypatch.setenv(cache.MAX_BYTES_ENV, "huge")
        with pytest.raises(ValueError, match=cache.MAX_BYTES_ENV):
            cache.max_cache_bytes()
        monkeypatch.setenv(cache.MAX_BYTES_ENV, "-1")
        with pytest.raises(ValueError, match=cache.MAX_BYTES_ENV):
            cache.max_cache_bytes()


class TestPurge:
    def test_purge_removes_artifacts(self, cache_dir, trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        cache.store_blocks(segment_blocks(trace, GEOMETRY), NAME, BUDGET,
                           digest)
        assert cache.purge() == 2
        assert cache.load_trace(NAME, BUDGET, digest) is None

    def test_purge_removes_orphaned_kernels(self, cache_dir):
        kernel = cache_dir / "compiled" / "kernels" / "single-0123.py"
        kernel.parent.mkdir(parents=True)
        kernel.write_text("def kernel():\n    pass\n")
        chunks = cache_dir / "traces" / f"{NAME}-{BUDGET}-0123-v2.chunks"
        chunks.parent.mkdir()
        chunks.write_bytes(b"PK")
        chunks_side = chunks.with_name(chunks.name + ".sha256")
        chunks_side.write_text("0" * 64)
        assert cache.purge() == 2  # the sidecar goes uncounted
        assert not kernel.exists()
        assert not chunks.exists()
        assert not chunks_side.exists()

    def test_purge_removes_deflated_artifacts(self, cache_dir):
        for sub in ("traces", "blocks", "compiled"):
            orphan = cache_dir / sub / f"{NAME}-{BUDGET}-0123.npz"
            orphan.parent.mkdir()
            orphan.write_bytes(b"PK")
        assert cache.purge() == 3
        assert not any(cache_dir.glob("*/*.npz"))

    def test_purge_spares_foreign_files(self, cache_dir, trace, digest):
        foreign = cache_dir / "keep.txt"
        foreign.write_text("mine")
        cache.store_trace(trace, NAME, BUDGET, digest)
        cache.purge()
        assert foreign.exists()


class TestEvictionRace:
    """Readers racing a concurrent evictor must miss cleanly.

    Eviction deletes the artifact and its sidecar in two steps; a reader
    can observe any interleaving.  None of them may look like corruption
    — a quarantine warning per racing read would turn routine cache
    maintenance into a storm.
    """

    def test_artifact_vanishing_mid_verify_is_none(self, cache_dir,
                                                   trace, digest):
        cache.store_trace(trace, NAME, BUDGET, digest)
        path, = (cache_dir / "traces").glob("*.npyrec")
        path.unlink()  # evictor deleted the artifact, sidecar not yet
        assert cache._read_verified(path) is None

    def test_load_racing_eviction_is_a_clean_miss(self, cache_dir,
                                                  trace, digest,
                                                  monkeypatch):
        cache.store_trace(trace, NAME, BUDGET, digest)
        real_read = Path.read_bytes

        def evicted_before_read(target):
            target.unlink(missing_ok=True)  # evictor wins the race here
            return real_read(target)

        monkeypatch.setattr(Path, "read_bytes", evicted_before_read)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load_trace(NAME, BUDGET, digest) is None

    def test_eviction_after_the_read_is_a_hit(self, cache_dir, trace,
                                              digest, monkeypatch):
        """The artifact is read once, whole: an evictor that deletes it
        and its sidecar right after the read cannot corrupt the load."""
        cache.store_trace(trace, NAME, BUDGET, digest)
        real_read = Path.read_bytes

        def evicted_after_read(target):
            data = real_read(target)
            target.unlink(missing_ok=True)  # evictor wins the race here
            cache._checksum_path(target).unlink(missing_ok=True)
            return data

        monkeypatch.setattr(Path, "read_bytes", evicted_after_read)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = cache.load_trace(NAME, BUDGET, digest)
        assert loaded is not None
        assert_same_arrays(loaded, trace, TRACE_FIELDS)

    def test_quarantine_of_vanished_file_is_silent(self, cache_dir):
        gone = cache_dir / "traces" / "already-evicted.npz"
        gone.parent.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.quarantine(gone, "checksum mismatch") is None

    def test_two_process_store_evict_load_stress(self, cache_dir, trace,
                                                 digest):
        """A child stores and evicts in a loop while we read.

        Every read must be a hit or a clean miss: zero quarantine
        warnings, and the quarantine directory stays empty.
        """
        src = str(Path(cache.__file__).resolve().parents[2])
        child_code = (
            "from repro.runtime import cache\n"
            "from repro.workloads import get_workload, load_trace\n"
            f"trace = load_trace({NAME!r}, {BUDGET})\n"
            f"digest = cache.program_digest("
            f"get_workload({NAME!r}).build())\n"
            "for _ in range(200):\n"
            f"    cache.store_trace(trace, {NAME!r}, {BUDGET}, digest)\n"
            "    cache.evict(limit=0)\n"
        )
        env = dict(os.environ, PYTHONPATH=src,
                   **{cache.CACHE_DIR_ENV: str(cache_dir)})
        child = subprocess.Popen([sys.executable, "-c", child_code],
                                 env=env)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                while child.poll() is None:
                    loaded = cache.load_trace(NAME, BUDGET, digest)
                    if loaded is not None:
                        assert loaded.n_records == trace.n_records
        finally:
            child.wait(timeout=120)
        assert child.returncode == 0
        quarantine_dir = cache_dir / cache.QUARANTINE_DIR
        assert not quarantine_dir.exists() \
            or not list(quarantine_dir.iterdir())
