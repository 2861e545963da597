"""reprolint configuration: defaults plus ``[tool.reprolint]`` loading.

Configuration lives with the project in ``pyproject.toml`` so the CLI,
CI, and the test suite all see the same rule scoping.  The defaults
below are the project's real settings — running with ``--isolated``
(no pyproject) behaves identically except for the project-specific
exclude and per-path-ignore tables, which only make sense relative to
a concrete tree.

TOML parsing uses the stdlib ``tomllib`` (Python 3.11+) and degrades to
pure defaults on older interpreters rather than requiring a third-party
parser.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple


class ConfigError(Exception):
    """Invalid ``[tool.reprolint]`` contents."""


@dataclass(frozen=True)
class LintConfig:
    """Every knob the framework and the project checkers read."""

    #: Directory paths/relpaths are resolved against (pyproject's home).
    project_root: Path = field(default_factory=Path.cwd)

    #: Default lint targets, relative to the project root.
    paths: Tuple[str, ...] = ("src/repro",)
    #: Project-relative path prefixes never linted.
    exclude: Tuple[str, ...] = ()
    #: Enabled rule prefixes (empty = all rules).
    select: Tuple[str, ...] = ()
    #: Disabled rule prefixes.
    ignore: Tuple[str, ...] = ()
    #: Path prefix -> rule prefixes ignored under it (e.g. relaxing the
    #: determinism family for tests, which may freely touch the clock
    #: and the environment).
    per_path_ignores: Dict[str, Tuple[str, ...]] = field(
        default_factory=dict)

    # -- determinism (REP1xx) ------------------------------------------
    #: Packages where the determinism rules REP101-REP103 apply.
    determinism_packages: Tuple[str, ...] = (
        "repro.core", "repro.predictors", "repro.trace")
    #: Modules (exact or package prefix) sanctioned to read the process
    #: environment directly (REP104 applies everywhere else).
    env_read_allowed: Tuple[str, ...] = (
        "repro.core.engine_mode", "repro.runtime", "repro.envvars")

    # -- dtype-safety (REP2xx) -----------------------------------------
    #: Numeric-kernel modules held to explicit-dtype discipline.
    dtype_modules: Tuple[str, ...] = (
        "repro.core.kernels", "repro.core.fast")

    # -- parity contract (REP3xx) --------------------------------------
    #: Scalar engine modules whose ``*Engine.__init__`` state fields
    #: must have fast-engine counterparts.
    parity_scalar_modules: Tuple[str, ...] = (
        "repro.core.single", "repro.core.multi", "repro.core.two_ahead")
    #: The vectorized engine module that must mirror the scalar state.
    parity_fast_module: str = "repro.core.fast"
    #: Scalar-only state fields exempt from the contract (diagnostics
    #: the fast path never needs).  Shrink-only: new engine state must
    #: be taught to the fast engine, not exempted.
    parity_exempt: Tuple[str, ...] = ("recovery_log",)

    # -- env registry (REP4xx) -----------------------------------------
    #: Module declaring every REPRO_* variable (repro.envvars.REGISTRY).
    env_registry_module: str = "repro.envvars"
    #: Project-relative docs that must mention each declared variable.
    env_docs: Tuple[str, ...] = ("README.md", "docs")

    # -- exception hygiene (REP5xx) ------------------------------------
    #: Modules allowed to catch BaseException (resilience wrappers).
    exception_sanctioned: Tuple[str, ...] = ("repro.runtime.resilience",)

    # -- async safety (REP6xx) -----------------------------------------
    #: Packages whose ``async def`` bodies are held to the event-loop
    #: discipline rules (blocking calls, lock-held awaits, swallowed
    #: cancellation).
    async_packages: Tuple[str, ...] = ("repro.serve",)


def _str_tuple(value: object, key: str) -> Tuple[str, ...]:
    if not isinstance(value, list) or \
            not all(isinstance(item, str) for item in value):
        raise ConfigError(f"[tool.reprolint] {key} must be a list "
                          f"of strings")
    return tuple(value)


def _apply_table(config: LintConfig, table: Mapping[str, object],
                 project_root: Path) -> LintConfig:
    updates: Dict[str, object] = {"project_root": project_root}
    simple_lists = {
        "paths": "paths",
        "exclude": "exclude",
        "select": "select",
        "ignore": "ignore",
    }
    for key, attr in simple_lists.items():
        if key in table:
            updates[attr] = _str_tuple(table[key], key)

    ppi = table.get("per-path-ignores")
    if ppi is not None:
        if not isinstance(ppi, dict):
            raise ConfigError("[tool.reprolint] per-path-ignores must "
                              "be a table of path -> rule list")
        updates["per_path_ignores"] = {
            str(prefix): _str_tuple(rules, f"per-path-ignores.{prefix}")
            for prefix, rules in ppi.items()
        }

    nested = {
        ("determinism", "packages"): "determinism_packages",
        ("determinism", "env-allowed"): "env_read_allowed",
        ("dtype", "modules"): "dtype_modules",
        ("parity", "scalar-modules"): "parity_scalar_modules",
        ("parity", "exempt"): "parity_exempt",
        ("env", "docs"): "env_docs",
        ("exceptions", "sanctioned"): "exception_sanctioned",
        ("async", "packages"): "async_packages",
    }
    for (section, key), attr in nested.items():
        sub = table.get(section)
        if isinstance(sub, dict) and key in sub:
            updates[attr] = _str_tuple(sub[key], f"{section}.{key}")
    for section, key, attr in (
            ("parity", "fast-module", "parity_fast_module"),
            ("env", "registry-module", "env_registry_module")):
        sub = table.get(section)
        if isinstance(sub, dict) and key in sub:
            value = sub[key]
            if not isinstance(value, str):
                raise ConfigError(f"[tool.reprolint] {section}.{key} "
                                  f"must be a string")
            updates[attr] = value
    return replace(config, **updates)  # type: ignore[arg-type]


def _toml_loads(text: str, source: Path) -> Optional[Mapping[str, object]]:
    """Parse TOML with the stdlib parser; None when it is unavailable.

    ``tomllib`` landed in Python 3.11; on older interpreters the tool
    degrades to built-in defaults instead of requiring a third-party
    parser.
    """
    try:
        import tomllib
    except ImportError:  # pragma: no cover - Python < 3.11
        return None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"invalid TOML in {source}: {exc}") from None


def from_pyproject(pyproject: Path) -> LintConfig:
    """Config from one ``pyproject.toml`` (defaults if no table)."""
    root = pyproject.parent.resolve()
    base = LintConfig(project_root=root)
    try:
        text = pyproject.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {pyproject}: {exc}") from None
    data = _toml_loads(text, pyproject)
    if data is None:
        return base
    tool = data.get("tool")
    table = tool.get("reprolint") if isinstance(tool, dict) else None
    if table is None:
        return base
    if not isinstance(table, dict):
        raise ConfigError("[tool.reprolint] must be a table")
    return _apply_table(base, table, root)


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest ``pyproject.toml`` at or above ``start``."""
    current = start.resolve()
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(start: Optional[Path] = None,
                explicit: Optional[Path] = None,
                isolated: bool = False) -> LintConfig:
    """Resolve the active config the way the CLI does.

    ``isolated`` skips pyproject discovery entirely; ``explicit`` names
    a pyproject file; otherwise the nearest pyproject above ``start``
    (default: the working directory) is used, falling back to pure
    defaults when none exists.
    """
    if isolated:
        return LintConfig(project_root=(start or Path.cwd()).resolve())
    if explicit is not None:
        if not explicit.is_file():
            raise ConfigError(f"config file not found: {explicit}")
        return from_pyproject(explicit)
    found = find_pyproject(start or Path.cwd())
    if found is None:
        return LintConfig(project_root=(start or Path.cwd()).resolve())
    return from_pyproject(found)
