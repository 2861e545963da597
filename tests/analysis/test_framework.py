"""Framework-level tests: walking, scoping, pragmas, filtering, CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.config import LintConfig
from repro.analysis.core import (
    module_name,
    pragma_codes,
    rule_enabled,
    rule_matches,
    run_analysis,
)
from repro.analysis.report import render_human, render_json

from .conftest import FIXTURES, REPO_ROOT, SRC_DIR


def _write_module(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _run(tmp_path, relpath, source, **config_kw):
    _write_module(tmp_path, relpath, source)
    config = LintConfig(project_root=tmp_path, **config_kw)
    return run_analysis([tmp_path], config)


class TestModuleName:
    def test_src_tree(self):
        assert module_name("src/repro/core/fast.py") == "repro.core.fast"

    def test_package_init(self):
        assert module_name("src/repro/core/__init__.py") == "repro.core"

    def test_fixture_tree_maps_into_repro(self):
        rel = "tests/analysis/fixtures/repro/core/det_bad.py"
        assert module_name(rel) == "repro.core.det_bad"

    def test_non_repro_path(self):
        assert module_name("tools/check.py") == "tools.check"


class TestRuleSelection:
    def test_prefix_match(self):
        assert rule_matches("REP104", ["REP1"])
        assert rule_matches("REP104", ["REP104"])
        assert not rule_matches("REP104", ["REP2", "REP301"])

    def test_select_then_ignore(self):
        assert rule_enabled("REP104", ["REP1"], [])
        assert not rule_enabled("REP104", ["REP2"], [])
        assert not rule_enabled("REP104", ["REP1"], ["REP104"])
        assert rule_enabled("REP104", [], [])

    def test_corpus_select(self, corpus_result):
        config = LintConfig(project_root=REPO_ROOT)
        only_det = run_analysis([FIXTURES], config, select=["REP1"])
        assert only_det.findings
        assert all(f.rule.startswith("REP1") for f in only_det.findings)
        assert len(only_det.findings) < len(corpus_result.findings)

    def test_corpus_ignore(self, corpus_result):
        config = LintConfig(project_root=REPO_ROOT)
        no_det = run_analysis([FIXTURES], config, ignore=["REP1"])
        assert no_det.findings
        assert not any(f.rule.startswith("REP1") for f in no_det.findings)


class TestPragmas:
    SOURCE = ("import time\n"
              "\n"
              "def stamp():\n"
              "    return time.time(){pragma}\n")

    def test_parse(self):
        assert pragma_codes("x = 1  # reprolint: disable=REP102") == \
            ("REP102",)
        assert pragma_codes("x  # reprolint: disable=REP1, REP301") == \
            ("REP1", "REP301")
        assert pragma_codes("x = 1  # a normal comment") == ()

    def test_without_pragma_fires(self, tmp_path):
        result = _run(tmp_path, "repro/core/mod.py",
                      self.SOURCE.format(pragma=""))
        assert [f.rule for f in result.findings] == ["REP102"]

    def test_exact_rule_suppresses(self, tmp_path):
        result = _run(tmp_path, "repro/core/mod.py", self.SOURCE.format(
            pragma="  # reprolint: disable=REP102"))
        assert result.findings == []

    def test_prefix_and_all_suppress(self, tmp_path):
        for pragma in ("REP1", "all"):
            result = _run(
                tmp_path, f"repro/core/mod_{pragma.lower()}.py",
                self.SOURCE.format(
                    pragma=f"  # reprolint: disable={pragma}"))
            assert result.findings == []

    def test_other_rule_does_not_suppress(self, tmp_path):
        result = _run(tmp_path, "repro/core/mod.py", self.SOURCE.format(
            pragma="  # reprolint: disable=REP201"))
        assert [f.rule for f in result.findings] == ["REP102"]


class TestPerPathIgnores:
    def test_prefix_table_filters(self):
        config = LintConfig(
            project_root=REPO_ROOT,
            per_path_ignores={"tests/": ("REP5",)})
        result = run_analysis([FIXTURES], config)
        assert not any(f.rule.startswith("REP5") for f in result.findings)
        assert any(f.rule.startswith("REP1") for f in result.findings)


class TestParseErrors:
    def test_syntax_error_reported_as_rep001(self, tmp_path):
        result = _run(tmp_path, "repro/core/broken.py",
                      "def oops(:\n    pass\n")
        assert [f.rule for f in result.findings] == ["REP001"]
        assert "cannot parse" in result.findings[0].message


class TestReports:
    def test_json_schema(self, corpus_result):
        payload = json.loads(render_json(corpus_result))
        assert payload["schema_version"] == 2
        assert payload["tool"] == "reprolint"
        assert payload["n_files"] == corpus_result.n_files
        assert sum(payload["counts"].values()) == \
            len(payload["findings"])
        first = payload["findings"][0]
        assert set(first) == {"rule", "family", "path", "line", "col",
                              "severity", "message", "hint"}

    def test_json_family_matches_rule(self, corpus_result):
        payload = json.loads(render_json(corpus_result))
        families = {"1": "determinism", "2": "dtype", "3": "parity",
                    "4": "env", "5": "exceptions", "6": "async",
                    "0": "framework"}
        for finding in payload["findings"]:
            assert finding["family"] == families[finding["rule"][3]]

    def test_json_per_family_timings(self, corpus_result):
        payload = json.loads(render_json(corpus_result))
        timings = payload["timings_s"]
        # One entry per registered checker family; times are small
        # non-negative floats (the self-time budget lives in
        # test_self_clean).
        for family in ("determinism", "dtype", "parity", "env",
                       "exceptions", "async"):
            assert family in timings, family
            assert timings[family] >= 0.0

    def test_human_summary_line(self, corpus_result):
        report = render_human(corpus_result)
        assert report.splitlines()[-1] == (
            f"{len(corpus_result.findings)} findings "
            f"({corpus_result.n_files} files checked)")

    def test_findings_sorted(self, corpus_result):
        keys = [f.sort_key() for f in corpus_result.findings]
        assert keys == sorted(keys)


def _cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + \
        env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd, env=env, capture_output=True, text=True)


class TestCli:
    def test_isolated_corpus_exits_nonzero_with_findings(self):
        proc = _cli("--isolated", "--format", "json",
                    "tests/analysis/fixtures")
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["findings"]
        for family in ("REP1", "REP2", "REP3", "REP4", "REP5", "REP6"):
            assert any(rule.startswith(family)
                       for rule in payload["counts"]), family

    def test_default_run_on_project_tree_is_clean(self):
        proc = _cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout

    def test_select_filters_cli(self):
        proc = _cli("--isolated", "--select", "REP5", "--format",
                    "json", "tests/analysis/fixtures")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert set(payload["counts"]) == {"REP501", "REP502"}

    def test_list_rules(self):
        proc = _cli("--list-rules")
        assert proc.returncode == 0
        for rule in ("REP001", "REP101", "REP201", "REP301", "REP401",
                     "REP501", "REP601"):
            assert rule in proc.stdout

    def test_missing_path_is_usage_error(self):
        proc = _cli("no/such/dir")
        assert proc.returncode == 2
        assert "no such path" in proc.stderr

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = _cli("--isolated", "--format", "json", "--output",
                    str(out), "tests/analysis/fixtures")
        assert proc.returncode == 1
        payload = json.loads(out.read_text())
        assert payload["tool"] == "reprolint"
        assert "wrote" in proc.stdout
