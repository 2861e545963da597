"""Phase-timing hook (``REPRO_PROFILE``) unit and wiring tests."""

import pytest

from repro.runtime import profile
from repro.runtime.profile import PROFILE_ENV


@pytest.fixture(autouse=True)
def _clean_totals():
    profile.reset()
    yield
    profile.reset()


class TestKnob:
    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert not profile.enabled()

    @pytest.mark.parametrize("raw", ["", "0", "off", "no", "false"])
    def test_false_values(self, raw, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert not profile.enabled()

    @pytest.mark.parametrize("raw", ["1", "on", "yes", "TRUE"])
    def test_true_values(self, raw, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, raw)
        assert profile.enabled()

    def test_garbage_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "maybe")
        with pytest.raises(ValueError, match=PROFILE_ENV):
            profile.enabled()


class TestAccounting:
    def test_phase_accumulates_when_enabled(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        with profile.phase("engine"):
            pass
        with profile.phase("engine"):
            pass
        totals = profile.snapshot()
        assert totals["engine"] >= 0.0
        assert set(totals) == {"engine"}

    def test_phase_is_noop_when_disabled(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        with profile.phase("engine"):
            pass
        assert profile.snapshot() == {}

    def test_delta_since_reports_only_new_time(self, monkeypatch):
        profile.record("trace", 1.0)
        base = profile.snapshot()
        profile.record("trace", 0.5)
        profile.record("compile", 0.25)
        delta = profile.delta_since(base)
        assert delta["trace"] == pytest.approx(0.5)
        assert delta["compile"] == pytest.approx(0.25)

    def test_format_orders_canonical_phases_first(self):
        text = profile.format_phases(
            {"aggregate": 0.5, "zeta": 0.25, "trace": 1.0})
        assert text == "trace=1.000s aggregate=0.500s zeta=0.250s"

    def test_emit_cell_writes_stderr(self, capsys):
        profile.emit_cell("DualBlockEngine/gcc", {"engine": 0.125})
        err = capsys.readouterr().err
        assert err == "[profile] DualBlockEngine/gcc: engine=0.125s\n"

    def test_emit_cell_appends_minor_faults(self, capsys):
        profile.emit_cell("DualBlockEngine/gcc", {"engine": 0.125}, 42)
        err = capsys.readouterr().err
        assert err == ("[profile] DualBlockEngine/gcc: engine=0.125s "
                       "minflt=42\n")

    def test_minor_faults_count_up(self):
        pytest.importorskip("resource")
        before = profile.minor_faults()
        bytearray(8 << 20)  # fresh pages
        assert profile.minor_faults() > before


class TestSweepReportWiring:
    def test_sweep_report_carries_phase_seconds(self, monkeypatch):
        from repro.runtime.resilience import run_resilient

        monkeypatch.setenv(PROFILE_ENV, "1")

        def cell(x):
            with profile.phase("engine"):
                return x * 2

        result = run_resilient(cell, [1, 2, 3], jobs=1, label=None)
        assert result.results == [2, 4, 6]
        assert "engine" in result.report.phase_seconds
        assert result.report.minflt >= 0
        assert "phases:" in result.report.summary()
        assert f"minflt={result.report.minflt}" in result.report.summary()

    def test_report_empty_when_profiling_off(self, monkeypatch):
        from repro.runtime.resilience import run_resilient

        monkeypatch.delenv(PROFILE_ENV, raising=False)
        result = run_resilient(lambda x: x, [1], jobs=1, label=None)
        assert result.report.phase_seconds == {}
        assert result.report.minflt is None
        assert "phases:" not in result.report.summary()
