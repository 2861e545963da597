"""Configuration gates: [tool.reprolint] loading and the mypy table.

The mypy exclusion table is SHRINK-ONLY.  ``ALLOWED_MYPY_EXCLUSIONS``
below is the frozen baseline of legacy modules excluded when the typing
gate was introduced; growing the table in ``pyproject.toml`` fails this
test.  Shrinking it (annotating a legacy package) is always welcome —
update both places.
"""

import pytest

from repro.analysis.config import (
    ConfigError,
    LintConfig,
    from_pyproject,
    load_config,
)

from .conftest import REPO_ROOT

tomllib = pytest.importorskip("tomllib")

PYPROJECT = REPO_ROOT / "pyproject.toml"

#: Legacy modules excluded from strict mypy at gate-introduction time.
#: Shrink-only — never add entries.
ALLOWED_MYPY_EXCLUSIONS = frozenset({
    "repro.__main__",
    "repro.core.*",
    "repro.cost.*",
    "repro.cpu.*",
    "repro.experiments.*",
    "repro.icache.*",
    "repro.isa.*",
    "repro.metrics.*",
    "repro.predictors.*",
    "repro.runtime.*",
    "repro.targets.*",
    "repro.trace.*",
    "repro.workloads.*",
})

#: Modules that must always be strictly checked (never excluded).
STRICT_MODULES = ("repro.analysis", "repro.analysis.*", "repro.envvars")


def _pyproject_data():
    return tomllib.loads(PYPROJECT.read_text())


# -- [tool.reprolint] ---------------------------------------------------


def test_project_reprolint_table_loads():
    config = from_pyproject(PYPROJECT)
    assert config.project_root == REPO_ROOT
    assert config.paths == ("src/repro",)
    assert "tests/analysis/fixtures" in config.exclude
    assert config.per_path_ignores["tests/"] == ("REP1", "REP401")
    assert config.parity_fast_module == "repro.core.fast"
    assert config.parity_exempt == ("recovery_log",)
    assert config.env_registry_module == "repro.envvars"


def test_isolated_config_has_no_project_tables():
    config = load_config(start=REPO_ROOT, isolated=True)
    assert config.exclude == ()
    assert config.per_path_ignores == {}
    # but the rule scoping defaults are the project's real scoping
    assert config.parity_fast_module == "repro.core.fast"


def test_custom_table_overrides(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\n'
        'paths = ["lib"]\n'
        'select = ["REP3"]\n'
        '[tool.reprolint.per-path-ignores]\n'
        '"vendored/" = ["REP1"]\n'
        '[tool.reprolint.parity]\n'
        'fast-module = "repro.core.turbo"\n'
        'exempt = ["debug_log"]\n'
        '[tool.reprolint.determinism]\n'
        'packages = ["repro.core"]\n')
    config = from_pyproject(tmp_path / "pyproject.toml")
    assert config.paths == ("lib",)
    assert config.select == ("REP3",)
    assert config.per_path_ignores == {"vendored/": ("REP1",)}
    assert config.parity_fast_module == "repro.core.turbo"
    assert config.parity_exempt == ("debug_log",)
    assert config.determinism_packages == ("repro.core",)


def test_invalid_toml_is_config_error(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[tool.reprolint\n")
    with pytest.raises(ConfigError, match="invalid TOML"):
        from_pyproject(tmp_path / "pyproject.toml")


def test_non_list_value_is_config_error(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\npaths = "src"\n')
    with pytest.raises(ConfigError, match="must be a list"):
        from_pyproject(tmp_path / "pyproject.toml")


def test_defaults_match_documented_scoping():
    config = LintConfig()
    assert config.determinism_packages == (
        "repro.core", "repro.predictors", "repro.trace")
    assert config.dtype_modules == (
        "repro.core.kernels", "repro.core.fast")
    assert config.exception_sanctioned == ("repro.runtime.resilience",)


# -- [tool.mypy] --------------------------------------------------------


def test_mypy_is_strict():
    mypy = _pyproject_data()["tool"]["mypy"]
    assert mypy["strict"] is True
    assert mypy["files"] == ["src/repro"]


def test_mypy_exclusion_table_is_shrink_only():
    mypy = _pyproject_data()["tool"]["mypy"]
    excluded = set()
    for override in mypy.get("overrides", ()):
        if not override.get("ignore_errors"):
            continue
        modules = override["module"]
        if isinstance(modules, str):
            modules = [modules]
        excluded.update(modules)
    grown = excluded - ALLOWED_MYPY_EXCLUSIONS
    assert not grown, (
        f"mypy exclusion table grew by {sorted(grown)}; the table is "
        f"shrink-only — annotate the new module instead")


def test_strict_modules_never_excluded():
    mypy = _pyproject_data()["tool"]["mypy"]
    excluded = set()
    for override in mypy.get("overrides", ()):
        if override.get("ignore_errors"):
            modules = override["module"]
            if isinstance(modules, str):
                modules = [modules]
            excluded.update(modules)
    for module in STRICT_MODULES:
        assert module not in excluded


# -- optional: run mypy when the environment has it ---------------------


def test_mypy_passes_on_strict_modules():
    mypy_api = pytest.importorskip(
        "mypy.api", reason="mypy is not installed in this environment")
    stdout, stderr, status = mypy_api.run(
        ["--config-file", str(PYPROJECT), str(REPO_ROOT / "src")])
    assert status == 0, stdout + stderr
