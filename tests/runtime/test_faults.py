"""Fault-injection harness: spec parsing and artifact corruption."""

import pytest

from repro.runtime import cache, faults


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestParseSpec:
    def test_empty_and_unset(self):
        assert faults.parse_spec(None) == ()
        assert faults.parse_spec("") == ()
        assert faults.parse_spec("   ") == ()

    def test_crash_directive(self):
        fault, = faults.parse_spec("crash:cell=3")
        assert fault == faults.Fault("crash", "cell", "3", 1)

    def test_times_option(self):
        fault, = faults.parse_spec("fail:cell=2,times=3")
        assert fault.action == "fail"
        assert fault.times == 3

    def test_corrupt_directive(self):
        fault, = faults.parse_spec("corrupt:trace=go")
        assert fault == faults.Fault("corrupt", "trace", "go", 1)
        fault, = faults.parse_spec("corrupt:compiled=go")
        assert fault == faults.Fault("corrupt", "compiled", "go", 1)

    def test_multiple_directives(self):
        parsed = faults.parse_spec("crash:cell=1; hang:cell=2")
        assert [f.action for f in parsed] == ["crash", "hang"]

    def test_whitespace_tolerated(self):
        fault, = faults.parse_spec("  hang : cell=5 ".replace(" : ", ":"))
        assert fault.action == "hang"

    @pytest.mark.parametrize("bad", [
        "explode:cell=1",        # unknown action
        "crash",                 # no target
        "crash:cell",            # no value
        "crash:cell=x",          # non-integer cell
        "crash:cell=-1",         # negative cell
        "crash:budget=3",        # wrong target key
        "corrupt:weights=go",    # unknown artifact kind
        "corrupt:blocks=go",     # retired: the derived artifact holds it
        "corrupt:trace=",        # empty name
        "crash:cell=1,times=0",  # times < 1
        "crash:cell=1,times=x",  # non-integer times
        "crash:cell=1,depth=2",  # unknown option
    ])
    def test_invalid_specs_name_the_variable(self, bad):
        with pytest.raises(ValueError, match=faults.FAULTS_ENV):
            faults.parse_spec(bad)

    def test_validate_reads_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "crash:cell=oops")
        with pytest.raises(ValueError, match=faults.FAULTS_ENV):
            faults.validate()


class TestCellFaults:
    def test_fail_fires_on_gated_attempts_only(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:cell=4,times=2")
        for attempt in (0, 1):
            with pytest.raises(faults.FaultInjected):
                faults.apply_cell_faults(4, attempt, isolated=False)
        faults.apply_cell_faults(4, 2, isolated=False)  # clean
        faults.apply_cell_faults(3, 0, isolated=False)  # other cell

    def test_hard_faults_degrade_to_exceptions_in_serial(self,
                                                         monkeypatch):
        # Without a worker process to sacrifice, crash/hang must raise
        # (exercising the retry path) instead of killing the test run.
        monkeypatch.setenv(faults.FAULTS_ENV, "crash:cell=0;hang:cell=1")
        with pytest.raises(faults.FaultInjected):
            faults.apply_cell_faults(0, 0, isolated=False)
        with pytest.raises(faults.FaultInjected):
            faults.apply_cell_faults(1, 0, isolated=False)


class TestCorruptArtifact:
    @pytest.fixture()
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.CACHE_DIR_ENV, str(tmp_path))
        return tmp_path

    def test_corrupt_trace_quarantined_then_recomputed(self, cache_dir,
                                                       monkeypatch):
        from repro.workloads import get_workload, load_trace

        trace = load_trace("compress", 5_000)
        digest = cache.program_digest(get_workload("compress").build())
        cache.store_trace(trace, "compress", 5_000, digest)

        monkeypatch.setenv(faults.FAULTS_ENV, "corrupt:trace=compress")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.load_trace("compress", 5_000, digest) is None
        quarantined = list((cache_dir / "quarantine").glob("*.npyrec"))
        assert len(quarantined) == 1

        # The fault fired once: a rewritten artifact reads back clean.
        cache.store_trace(trace, "compress", 5_000, digest)
        loaded = cache.load_trace("compress", 5_000, digest)
        assert loaded is not None
        assert loaded.n_instructions == trace.n_instructions

    def test_corrupt_compiled_quarantined_then_recompiled(self, cache_dir,
                                                          monkeypatch):
        """The derived artifact's quarantine path: the corrupted file is
        moved aside, and the block stream and both views are recomputed
        bit-identically and written back."""
        import dataclasses

        import numpy as np

        import repro.workloads.registry as registry
        from repro.core.config import FetchInput
        from repro.core.kernels import ReadList, _compile, compile_fetch_input
        from repro.icache import CacheGeometry
        from repro.workloads import REGISTRY, load_fetch_input

        geometry = CacheGeometry.normal(8)
        key = ("go", 5_000, geometry)
        registry._fetch_inputs.pop(key, None)
        source = load_fetch_input("go", geometry, 5_000)  # stores it
        path, = (cache_dir / "compiled").glob("*.npyrec")
        monkeypatch.setenv(faults.FAULTS_ENV, "corrupt:compiled=go")
        registry._fetch_inputs.pop(key)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            warm = load_fetch_input("go", geometry, 5_000)
        assert (cache_dir / "quarantine" / f"compiled.{path.name}").exists()
        fresh = FetchInput.from_trace(source.trace, source.static, geometry)
        for field in ("start", "n_instr", "exit_kind", "exit_target",
                      "first_rec", "n_recs"):
            assert np.array_equal(getattr(warm.blocks, field),
                                  getattr(fresh.blocks, field)), field
        for flag in (False, True):
            got = compile_fetch_input(warm, flag)
            expect = _compile(fresh, flag)
            for field, value in vars(expect).items():
                if isinstance(value, np.ndarray):
                    assert getattr(got, field).dtype == value.dtype, field
                    assert np.array_equal(getattr(got, field), value), field
            for field in dataclasses.fields(ReadList):
                assert np.array_equal(getattr(got.reads, field.name),
                                      getattr(expect.reads, field.name)), \
                    field.name
        # The fault fired once: the rewritten artifact reads back clean.
        assert path.exists()
        assert cache.load_compiled("go", 5_000, geometry,
                                   REGISTRY.digest("go"),
                                   source.trace.n_records) is not None

    def test_untargeted_artifacts_untouched(self, cache_dir,
                                            monkeypatch):
        from repro.workloads import get_workload, load_trace

        trace = load_trace("go", 5_000)
        digest = cache.program_digest(get_workload("go").build())
        cache.store_trace(trace, "go", 5_000, digest)
        monkeypatch.setenv(faults.FAULTS_ENV, "corrupt:trace=compress")
        assert cache.load_trace("go", 5_000, digest) is not None


class TestRequestFaults:
    def test_request_directives_parse(self):
        parsed = faults.parse_spec(
            "crash:request=3f2a;fail:request=kmp,times=2;"
            "corrupt:entry=3f2a")
        assert parsed[0] == faults.Fault("crash", "request", "3f2a", 1)
        assert parsed[1] == faults.Fault("fail", "request", "kmp", 2)
        assert parsed[2] == faults.Fault("corrupt", "entry", "3f2a", 1)

    def test_request_matching_by_prefix_and_workload(self):
        spec = faults.parse_spec("fail:request=ab12;crash:request=go")
        assert len(faults.request_faults("ab12ffff", "kmp", spec)) == 1
        assert len(faults.request_faults("0000ffff", "go", spec)) == 1
        assert faults.request_faults("0000ffff", "kmp", spec) == ()

    def test_soft_application_only_fires_fail(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV,
                           "crash:request=ab;hang:request=ab")
        # crash/hang ride the translated cell faults, not the body.
        faults.apply_request_faults("abcd", "kmp", 0, hard=False)
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:request=ab")
        with pytest.raises(faults.FaultInjected):
            faults.apply_request_faults("abcd", "kmp", 0, hard=False)

    def test_hard_application_degrades_every_action(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "crash:request=ab,times=2")
        with pytest.raises(faults.FaultInjected):
            faults.apply_request_faults("abcd", "kmp", 0, hard=True)
        with pytest.raises(faults.FaultInjected):
            faults.apply_request_faults("abcd", "kmp", 1, hard=True)
        faults.apply_request_faults("abcd", "kmp", 2, hard=True)

    def test_explicit_spec_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "fail:request=ab,times=9")
        snapshot = faults.parse_spec(None)
        faults.apply_request_faults("abcd", "kmp", 0, hard=True,
                                    spec=snapshot)  # snapshot is empty

    def test_corrupt_entry_honours_times(self):
        spec = faults.parse_spec("corrupt:entry=ab,times=2")
        assert faults.corrupt_entry("abcd", "kmp", spec)
        assert faults.corrupt_entry("abcd", "kmp", spec)
        assert not faults.corrupt_entry("abcd", "kmp", spec)
        assert not faults.corrupt_entry("ffff", "kmp", spec)

    def test_cell_faults_reject_other_targets(self):
        with pytest.raises(ValueError, match="request"):
            faults.parse_spec("crash:slot=3")
