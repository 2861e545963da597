"""CLI smoke tests (small budgets keep them fast)."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 18
        assert "compress" in out and "tomcatv" in out

    def test_table7(self, capsys):
        assert main(["table7"]) == 0
        out = capsys.readouterr().out
        assert "52.4 Kbits" in out

    def test_fig6_with_budget(self, capsys):
        assert main(["fig6", "--budget", "20000"]) == 0
        out = capsys.readouterr().out
        assert "blocked miss" in out

    def test_run_single_block(self, capsys):
        assert main(["run", "swim", "--budget", "20000",
                     "--blocks", "1", "--cache", "normal"]) == 0
        out = capsys.readouterr().out
        assert "IPC_f" in out

    def test_run_dual_block_double_selection(self, capsys):
        assert main(["run", "compress", "--budget", "20000",
                     "--selection", "double"]) == 0
        assert "IPC_f" in capsys.readouterr().out

    def test_run_multi_block(self, capsys):
        assert main(["run", "mgrid", "--budget", "20000",
                     "--blocks", "3"]) == 0
        assert "IPC_f" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "doom"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_report_writes_markdown(self, capsys, tmp_path):
        out = tmp_path / "report.md"
        assert main(["report", "--budget", "15000",
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert "Figure 6" in text
        assert "Table 7" in text
        assert "hardware cost" in text

    def test_run_with_btb_target(self, capsys):
        assert main(["run", "vortex", "--budget", "15000",
                     "--target", "btb", "--target-entries", "32"]) == 0
        assert "IPC_f" in capsys.readouterr().out

    def test_engine_flag_modes_print_identically(self, capsys,
                                                 monkeypatch):
        from repro.core.engine_mode import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "fast")  # restored after test
        assert main(["run", "compress", "--budget", "15000",
                     "--engine", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["run", "compress", "--budget", "15000",
                     "--engine", "fast"]) == 0
        assert capsys.readouterr().out == scalar_out

    def test_bad_engine_env_exits_2(self, capsys, monkeypatch):
        from repro.core.engine_mode import ENGINE_ENV

        monkeypatch.setenv(ENGINE_ENV, "turbo")
        assert main(["fig6", "--budget", "15000"]) == 2
        assert ENGINE_ENV in capsys.readouterr().err

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_TRACER", "bogus"),
    ])
    def test_bad_capture_env_exits_2(self, capsys, monkeypatch,
                                     variable, value):
        monkeypatch.setenv(variable, value)
        assert main(["fig6", "--budget", "15000"]) == 2
        assert variable in capsys.readouterr().err

    def test_bad_engine_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig6", "--engine", "turbo"])

    def test_help_mentions_engine_knobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "REPRO_ENGINE" in out
        assert "REPRO_PROFILE" in out

    def test_profile_flag_emits_phase_lines(self, capsys, monkeypatch):
        from repro.runtime.profile import PROFILE_ENV

        monkeypatch.setenv(PROFILE_ENV, "1")
        assert main(["fig8", "--budget", "15000"]) == 0
        err = capsys.readouterr().err
        assert "[profile]" in err
        assert "engine=" in err
        assert "minflt=" in err
