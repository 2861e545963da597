"""Registry behaviour: suites, caching, lookup errors."""

import pytest

from repro.icache import CacheGeometry
from repro.workloads import (
    REGISTRY,
    SPEC95,
    SPECFP95,
    SPECINT95,
    get_workload,
    load_fetch_input,
    load_trace,
    workload_names,
)
from repro.workloads.base import WorkloadRegistry


class TestSuites:
    def test_eight_int_programs(self):
        assert len(SPECINT95) == 8
        assert set(SPECINT95) == {"gcc", "compress", "go", "ijpeg", "li",
                                  "m88ksim", "perl", "vortex"}

    def test_ten_fp_programs(self):
        assert len(SPECFP95) == 10
        assert set(SPECFP95) == {"applu", "apsi", "fpppp", "hydro2d",
                                 "mgrid", "su2cor", "swim", "tomcatv",
                                 "turb3d", "wave5"}

    def test_spec95_is_union(self):
        assert set(SPEC95) == set(SPECINT95) | set(SPECFP95)
        assert len(SPEC95) == 18

    def test_suite_filters(self):
        assert set(workload_names("int")) == set(SPECINT95)
        assert set(workload_names("fp")) == set(SPECFP95)
        assert set(workload_names("extra")) == {"kmp"}
        assert set(workload_names()) == set(SPEC95) | {"kmp"}


class TestLookup:
    def test_get_known(self):
        w = get_workload("compress")
        assert w.name == "compress"
        assert w.suite == "int"
        assert w.description

    def test_get_unknown_raises_with_known_names(self):
        with pytest.raises(KeyError, match="compress"):
            get_workload("nonexistent")


class TestCaching:
    def test_program_cached(self):
        assert REGISTRY.program("swim") is REGISTRY.program("swim")

    def test_trace_cached_per_budget(self):
        t1 = load_trace("swim", 2_000)
        t2 = load_trace("swim", 2_000)
        t3 = load_trace("swim", 3_000)
        assert t1 is t2
        assert t3 is not t1
        assert t3.n_instructions > t1.n_instructions

    def test_fetch_input_cached_per_geometry(self):
        geo = CacheGeometry.normal(8)
        fi1 = load_fetch_input("swim", geo, 2_000)
        fi2 = load_fetch_input("swim", geo, 2_000)
        fi3 = load_fetch_input("swim", CacheGeometry.self_aligned(8), 2_000)
        assert fi1 is fi2
        assert fi3 is not fi1
        # One static code map per program, shared and frozen.
        assert fi3.static is fi1.static
        assert not fi1.static.kind.flags.writeable
        assert not fi1.static.direct_target.flags.writeable


class TestRegistryClass:
    def test_duplicate_rejected(self):
        reg = WorkloadRegistry()
        reg.register("x", "int", "d")(lambda: None)
        with pytest.raises(ValueError):
            reg.register("x", "int", "d")(lambda: None)

    def test_bad_suite_rejected(self):
        reg = WorkloadRegistry()
        with pytest.raises(ValueError):
            reg.register("y", "weird", "d")

    def test_clear_caches(self):
        reg = WorkloadRegistry()
        from repro.isa import ProgramBuilder

        def build():
            b = ProgramBuilder(name="t")
            with b.function("main"):
                b.asm.nop()
            return b.build()

        reg.register("t", "int", "d")(build)
        first = reg.program("t")
        static = reg.static_code("t")
        assert reg.static_code("t") is static
        reg.clear_caches()
        assert reg.program("t") is not first
        assert reg.static_code("t") is not static


def _counting_builder(trips):
    """A one-loop program whose dynamic length depends on ``trips``."""
    from repro.isa import ProgramBuilder

    def build():
        b = ProgramBuilder(name="cached")
        with b.function("main"):
            with b.for_range("r3", 0, trips):
                b.asm.addi("r4", "r4", 1)
        return b.build()

    return build


class TestDiskCache:
    """Traces persist in the digest-keyed ``REPRO_CACHE_DIR`` cache."""

    def test_trace_persisted_and_reloaded(self, tmp_path, monkeypatch):
        import numpy as np
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        build = _counting_builder(50)
        reg = WorkloadRegistry()
        reg.register("cached", "int", "d")(build)
        first = reg.trace("cached", 2_000)
        assert len(list((tmp_path / "traces").glob("cached-2000-*.npyrec"))) \
            == 1
        # A fresh registry (new process stand-in) loads from disk: the
        # tracer must not run again.
        def no_capture(_program):
            raise AssertionError("trace was recaptured, not reloaded")

        monkeypatch.setattr("repro.cpu.capture_machine", no_capture)
        reg2 = WorkloadRegistry()
        reg2.register("cached", "int", "d")(build)
        second = reg2.trace("cached", 2_000)
        assert second.n_instructions == first.n_instructions
        np.testing.assert_array_equal(second.pc, first.pc)

    def test_changed_builder_recaptures(self, tmp_path, monkeypatch):
        from repro.cpu import Machine
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        old = WorkloadRegistry()
        old.register("cached", "int", "d")(_counting_builder(10))
        stale = old.trace("cached", 2_000)
        # Same name and budget, different program: the digest key must
        # miss and the fresh program's trace be captured.
        new = WorkloadRegistry()
        new.register("cached", "int", "d")(_counting_builder(200))
        fresh = new.trace("cached", 2_000)
        expected = Machine(new.program("cached")).run(
            max_instructions=2_000).trace
        assert fresh.n_instructions == expected.n_instructions
        assert fresh.n_instructions > stale.n_instructions
        assert len(list((tmp_path / "traces").glob("cached-2000-*.npyrec"))) \
            == 2

    def test_module_clear_caches_goes_cold(self, tmp_path, monkeypatch):
        """``repro.workloads.clear_caches`` drops every in-memory layer
        and purges the disk cache: the next load captures afresh."""
        import repro.cpu
        import repro.workloads
        from repro.icache import CacheGeometry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        geometry = CacheGeometry.normal(8)
        first = repro.workloads.load_fetch_input("kmp", geometry, 1_234)
        assert any(path.is_file() for path in tmp_path.rglob("*"))
        repro.workloads.clear_caches()
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]

        captured = []
        capture = repro.cpu.capture_machine

        def counting_capture(program):
            captured.append(program)
            return capture(program)

        monkeypatch.setattr("repro.cpu.capture_machine", counting_capture)
        again = repro.workloads.load_fetch_input("kmp", geometry, 1_234)
        assert len(captured) == 1
        assert again is not first
        assert again.blocks.n_blocks == first.blocks.n_blocks
        assert any(path.is_file() for path in tmp_path.rglob("*"))

    def test_trace_cache_is_lru_bounded(self, tmp_path, monkeypatch):
        import numpy as np
        from repro.workloads import base

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(base, "TRACE_CACHE_MAX", 2)
        reg = WorkloadRegistry()
        reg.register("cached", "int", "d")(_counting_builder(2_000))
        first = reg.trace("cached", 1_000)
        reg.trace("cached", 1_500)
        assert reg.trace("cached", 1_000) is first  # a hit refreshes it
        reg.trace("cached", 2_000)
        # Never above the bound, and the least recently used went.
        assert list(reg._traces) == [("cached", 1_000), ("cached", 2_000)]
        reg.trace("cached", 3_000)
        assert len(reg._traces) == 2
        assert ("cached", 1_000) not in reg._traces

        # The evicted trace reloads from disk, bit for bit, without
        # running the tracer again.
        def no_capture(_program):
            raise AssertionError("trace was recaptured, not reloaded")

        monkeypatch.setattr("repro.cpu.capture_machine", no_capture)
        again = reg.trace("cached", 1_000)
        assert again is not first
        assert len(reg._traces) == 2
        assert (again.entry_pc, again.n_instructions, again.truncated) \
            == (first.entry_pc, first.n_instructions, first.truncated)
        for name in ("pc", "kind", "taken", "target"):
            old, new = getattr(first, name), getattr(again, name)
            assert new.dtype == old.dtype
            np.testing.assert_array_equal(new, old)
