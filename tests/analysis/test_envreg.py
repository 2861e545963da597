"""Env-registry checker (REP401/REP402) and the registry module."""

import pytest

from repro import envvars
from repro.analysis.config import LintConfig
from repro.analysis.core import run_analysis


def test_undeclared_use_reported(findings_at):
    rep401 = [f for f in findings_at("det_bad.py")
              if f.rule == "REP401"]
    assert len(rep401) == 1
    assert "REPRO_UNDECLARED_KNOB" in rep401[0].message


def test_undocumented_declaration_reported(findings_at):
    findings = findings_at("envvars.py")
    assert [f.rule for f in findings] == ["REP402"]
    assert "REPRO_FIXTURE_UNDOCUMENTED" in findings[0].message


def test_silent_without_registry(tmp_path):
    user = tmp_path / "repro" / "experiments" / "knob.py"
    user.parent.mkdir(parents=True)
    user.write_text("NAME = 'REPRO_BOGUS_KNOB'\n")
    config = LintConfig(project_root=tmp_path)
    result = run_analysis([user], config)
    assert not any(f.rule.startswith("REP4") for f in result.findings)


def test_registry_loaded_from_disk_when_not_linted(tmp_path):
    registry = tmp_path / "src" / "repro" / "envvars.py"
    registry.parent.mkdir(parents=True)
    registry.write_text(
        "class EnvVar:\n"
        "    def __init__(self, name, summary=''):\n"
        "        self.name = name\n"
        "REGISTRY = (EnvVar(name='REPRO_DECLARED_KNOB'),)\n")
    user = tmp_path / "repro" / "experiments" / "knob.py"
    user.parent.mkdir(parents=True)
    user.write_text("A = 'REPRO_DECLARED_KNOB'\n"
                    "B = 'REPRO_BOGUS_KNOB'\n")
    config = LintConfig(project_root=tmp_path, env_docs=())
    result = run_analysis([user], config)
    rep401 = [f for f in result.findings if f.rule == "REP401"]
    assert len(rep401) == 1
    assert "REPRO_BOGUS_KNOB" in rep401[0].message


def _project(tmp_path, readme):
    """A project with a one-knob registry and the given README."""
    registry = tmp_path / "src" / "repro" / "envvars.py"
    registry.parent.mkdir(parents=True)
    registry.write_text(
        "class EnvVar:\n"
        "    def __init__(self, name, summary=''):\n"
        "        self.name = name\n"
        "REGISTRY = (EnvVar(name='REPRO_CACHE_DIR'),)\n")
    (tmp_path / "README.md").write_text(readme)
    return registry


def test_documented_name_without_registry_entry_reported(tmp_path):
    registry = _project(tmp_path, (
        "Set `REPRO_CACHE_DIR` to move the cache.\n"
        "`REPRO_GONE_KNOB` was deleted, and so was `REPRO_OLD_*`.\n"))
    result = run_analysis([registry], LintConfig(project_root=tmp_path))
    stale = [(f.rule, f.path, f.line, f.message.split()[0])
             for f in result.findings]
    assert stale == [("REP402", "README.md", 2, "REPRO_GONE_KNOB"),
                     ("REP402", "README.md", 2, "REPRO_OLD_")]


def test_fixture_registry_is_not_held_to_the_project_docs(tmp_path):
    _project(tmp_path, "Only `REPRO_CACHE_DIR` and `REPRO_GONE_KNOB`.\n")
    fixture = tmp_path / "tests" / "fixtures" / "repro" / "envvars.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text(
        "REGISTRY = (EnvVar(name='REPRO_CACHE_DIR'),)\n")
    result = run_analysis([fixture], LintConfig(project_root=tmp_path))
    assert result.findings == []


# -- the real registry module ------------------------------------------


def test_service_settings_are_not_knobs():
    assert len(envvars.REGISTRY) == 12
    assert not any(var.owner.startswith("repro.serve")
                   for var in envvars.REGISTRY)


def test_registry_is_sorted_and_unique():
    names = [var.name for var in envvars.REGISTRY]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert all(name.startswith("REPRO_") for name in names)
    assert all(var.summary for var in envvars.REGISTRY)


def test_read_declared_variable(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_LEN", "120000")
    assert envvars.read("REPRO_TRACE_LEN") == "120000"
    monkeypatch.delenv("REPRO_TRACE_LEN")
    assert envvars.read("REPRO_TRACE_LEN") is None


def test_read_rejects_undeclared_variable():
    with pytest.raises(KeyError, match="REPRO_NOT_A_KNOB"):
        envvars.read("REPRO_NOT_A_KNOB")


def test_every_registry_entry_reaches_the_environment(monkeypatch):
    # describe() knows each declared name, and read() consults the
    # process environment for exactly that name.
    for var in envvars.REGISTRY:
        assert envvars.describe(var.name) is var
        monkeypatch.setenv(var.name, "sentinel")
        assert envvars.read(var.name) == "sentinel"
        monkeypatch.delenv(var.name)
    assert envvars.registered_names() == \
        tuple(var.name for var in envvars.REGISTRY)


def test_registry_covers_every_env_read_in_tree(repo_root):
    """Belt-and-braces sweep: no REPRO_* literal outside the registry,
    docs and tests refers to an undeclared variable."""
    import re

    declared = set(envvars.registered_names())
    pattern = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")
    offenders = []
    for path in sorted((repo_root / "src").rglob("*.py")):
        for name in pattern.findall(path.read_text()):
            if name not in declared and "FIXTURE" not in name \
                    and "UNDECLARED" not in name:
                offenders.append((path.name, name))
    assert offenders == [], offenders
