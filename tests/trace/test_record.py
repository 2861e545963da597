"""Trace container tests: validation, masks, persistence."""

import numpy as np
import pytest

from repro.isa import InstrKind
from repro.runtime.cache import read_records, write_records
from repro.trace import Trace
from repro.trace.record import CAPTURE_VERSION

K_COND = int(InstrKind.COND)
K_JUMP = int(InstrKind.JUMP)
K_HALT = int(InstrKind.HALT)


def tiny_trace(name="t"):
    return Trace.from_lists(
        entry_pc=0,
        n_instructions=12,
        pc=[3, 7, 11],
        kind=[K_COND, K_JUMP, K_HALT],
        taken=[False, True, False],
        target=[0, 10, 12],
        name=name,
    )


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_lists(0, 5, [1, 2], [K_HALT], [False], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace.from_lists(0, 0, [], [], [], [])

    def test_must_end_with_halt(self):
        with pytest.raises(ValueError):
            Trace.from_lists(0, 5, [3], [K_COND], [True], [0])


class TestAccessors:
    def test_counts(self):
        t = tiny_trace()
        assert len(t) == 3
        assert t.n_records == 3
        assert t.n_branches == 2
        assert t.n_cond == 1

    def test_cond_mask(self):
        t = tiny_trace()
        assert list(t.cond_mask) == [True, False, False]

    def test_records_iteration(self):
        t = tiny_trace()
        recs = list(t.records())
        assert recs[0] == (3, K_COND, False, 0)
        assert recs[1] == (7, K_JUMP, True, 10)
        assert recs[2][1] == K_HALT

    def test_dtypes(self):
        t = tiny_trace()
        assert t.pc.dtype == np.int64
        assert t.kind.dtype == np.uint8
        assert t.taken.dtype == bool


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        t = tiny_trace(name="roundtrip")
        path = tmp_path / "trace.npyrec"
        t.save(path)
        loaded = Trace.load(path)
        assert loaded.entry_pc == t.entry_pc
        assert loaded.n_instructions == t.n_instructions
        assert loaded.name == "roundtrip"
        assert loaded.truncated == t.truncated
        np.testing.assert_array_equal(loaded.pc, t.pc)
        np.testing.assert_array_equal(loaded.kind, t.kind)
        np.testing.assert_array_equal(loaded.taken, t.taken)
        np.testing.assert_array_equal(loaded.target, t.target)

    def test_roundtrip_preserves_dtypes_and_counts(self, tmp_path):
        t = tiny_trace()
        path = tmp_path / "trace.npyrec"
        t.save(path)
        loaded = Trace.load(path)
        assert loaded.pc.dtype == np.int64
        assert loaded.kind.dtype == np.uint8
        assert loaded.taken.dtype == bool
        assert loaded.target.dtype == np.int64
        assert loaded.n_records == t.n_records
        assert loaded.n_branches == t.n_branches
        assert loaded.n_cond == t.n_cond

    def test_roundtrip_preserves_truncated_flag(self, tmp_path):
        t = Trace.from_lists(0, 12, [3], [K_HALT], [False], [12],
                             truncated=True)
        path = tmp_path / "trace.npyrec"
        t.save(path)
        assert Trace.load(path).truncated is True


class TestCaptureVersion:
    def _restamp(self, tmp_path, version):
        """Save a trace, then rewrite it stamped ``version`` (None = no
        stamp, the scalar-era v1 format)."""
        path = tmp_path / "trace.npyrec"
        tiny_trace().save(path)
        fields = {key: value for key, value
                  in read_records(path.read_bytes()).items()
                  if key != "capture_version"}
        if version is not None:
            fields["capture_version"] = np.int64(version)
        with open(path, "wb") as handle:
            write_records(handle, fields)
        return path

    def test_stale_version_rejected(self, tmp_path):
        path = self._restamp(tmp_path, CAPTURE_VERSION - 1)
        with pytest.raises(ValueError, match="capture version"):
            Trace.load(path)

    def test_unstamped_v1_rejected(self, tmp_path):
        path = self._restamp(tmp_path, None)
        with pytest.raises(ValueError, match="capture version 1"):
            Trace.load(path)
