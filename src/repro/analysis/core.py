"""reprolint framework core: findings, file walking, checker dispatch.

The framework is deliberately small: a checker is a class with a
``rules`` tuple (:class:`RuleSpec`), a per-file hook
(:meth:`Checker.check_file`) receiving a parsed :class:`FileContext`,
and an optional :meth:`Checker.finish` hook for cross-file contracts
(parity, env registry).  :func:`run_analysis` walks the requested
paths, runs every registered checker, and post-filters the raw findings
through rule selection (``--select``/``--ignore``), per-path ignore
tables, and per-line ``# reprolint: disable=RULE`` pragmas.

Rule identifiers are ``REP`` + three digits; the hundreds digit groups
them by checker (1xx determinism, 2xx dtype-safety, 3xx parity
contract, 4xx env registry, 5xx exception hygiene, 6xx
async-safety).  Selection matches by prefix, so
``--select REP1`` enables every determinism rule.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from .config import LintConfig

if TYPE_CHECKING:
    from .flow import ModuleFlow

SEVERITY_ERROR = "error"

#: Human-readable family label per hundreds digit of the rule id.
FAMILIES: Dict[str, str] = {
    "0": "framework",
    "1": "determinism",
    "2": "dtype",
    "3": "parity",
    "4": "env",
    "5": "exceptions",
    "6": "async",
}


def rule_family(rule: str) -> str:
    """Family label of a rule id (``REP601`` → ``async``)."""
    digit = rule[3:4] if rule.startswith("REP") else ""
    return FAMILIES.get(digit, "unknown")


@dataclass(frozen=True)
class RuleSpec:
    """Identity and documentation of one lint rule."""

    id: str
    name: str
    summary: str
    hint: str = ""


#: Pseudo-rule reported for files the framework itself cannot parse.
PARSE_RULE = RuleSpec(
    id="REP001",
    name="syntax-error",
    summary="File could not be parsed as Python.",
    hint="Fix the syntax error; unparseable files cannot be analysed.",
)


@dataclass
class Finding:
    """One structured lint finding."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    severity: str = SEVERITY_ERROR

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    @property
    def family(self) -> str:
        return rule_family(self.rule)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
        }

    def render(self) -> str:
        text = (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")
        if self.hint:
            text += f"  [hint: {self.hint}]"
        return text


@dataclass
class FileContext:
    """One parsed source file handed to every checker."""

    path: Path
    relpath: str
    module: str
    tree: ast.Module
    lines: Tuple[str, ...]
    _flow: Optional["ModuleFlow"] = field(default=None, repr=False,
                                          compare=False)

    def flow(self) -> "ModuleFlow":
        """This file's dataflow analysis, built once and shared.

        Every checker that needs CFG/reaching-defs/call-summary data
        calls this; the first caller pays the construction cost.
        """
        if self._flow is None:
            from .flow import ModuleFlow
            self._flow = ModuleFlow(self.tree, self.module)
        return self._flow

    def finding(self, rule: RuleSpec, node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        """Finding anchored at ``node`` in this file."""
        return Finding(
            rule=rule.id,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=rule.hint if hint is None else hint,
        )


class Checker:
    """Base class: per-file visitation plus an optional finish phase."""

    rules: Tuple[RuleSpec, ...] = ()

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finish(self) -> Iterable[Finding]:
        return ()


class ImportMap:
    """Local-name → dotted-origin map for one module's imports.

    Tracks ``import x``, ``import x as y`` and ``from x import y [as z]``
    at any nesting level, so attribute chains like ``np.random.rand``
    resolve to canonical dotted names (``numpy.random.rand``) no matter
    how the module was aliased.  When the owning module's dotted name is
    supplied, relative imports resolve against it (``from ..runtime
    import resilience`` inside ``repro.serve.service`` resolves to
    ``repro.runtime.resilience``); without it, relative imports and
    unknown heads resolve to ``None`` — checkers only act on names they
    can prove.
    """

    def __init__(self, tree: ast.AST,
                 module: Optional[str] = None) -> None:
        self.names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.names[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.names[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = node.module
                if node.level:
                    base = _resolve_relative(module, node.level,
                                             node.module)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.names[local] = f"{base}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an attribute/name chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.names.get(node.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))


def _resolve_relative(module: Optional[str], level: int,
                      target: Optional[str]) -> Optional[str]:
    """Base package of a relative import seen from ``module``.

    ``module`` is the importing module's dotted name (not its package):
    one leading dot strips the module's own last component, each extra
    dot strips one more.  Packages analysed through their ``__init__``
    lose a level here (the dotted name does not say it is a package);
    the resulting miss resolves to ``None``-like unknown names, never a
    wrong positive for the dotted-prefix rules.
    """
    if module is None:
        return None
    parts = module.split(".")
    if level > len(parts):
        return None
    base_parts = parts[:len(parts) - level]
    if target:
        base_parts.append(target)
    if not base_parts:
        return None
    return ".".join(base_parts)


def module_name(relpath: str) -> str:
    """Dotted module name of a project-relative ``.py`` path.

    Paths inside a ``repro`` package tree (``src/repro/...``, or fixture
    trees like ``tests/analysis/fixtures/repro/...``) map to their
    ``repro.*`` dotted name, so path-scoped rules apply to fixtures the
    same way they apply to the real tree.  Anything else maps to its
    plain dotted relative path.
    """
    parts = list(Path(relpath).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "repro" in parts:
        last = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[last:]
    return ".".join(parts)


def in_packages(module: str, packages: Sequence[str]) -> bool:
    """True when ``module`` is any listed package or inside one."""
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in packages)


def rule_matches(rule: str, patterns: Sequence[str]) -> bool:
    """Prefix match: ``REP1`` matches ``REP104``; exact ids match too."""
    return any(rule.startswith(pattern) for pattern in patterns if pattern)


def rule_enabled(rule: str, select: Sequence[str],
                 ignore: Sequence[str]) -> bool:
    if select and not rule_matches(rule, select):
        return False
    return not rule_matches(rule, ignore)


_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


def pragma_codes(line: str) -> Tuple[str, ...]:
    """Rule ids disabled by an inline pragma on ``line`` (may be 'all')."""
    match = _PRAGMA_RE.search(line)
    if not match:
        return ()
    return tuple(code.strip() for code in match.group(1).split(",")
                 if code.strip())


def _suppressed(finding: Finding, lines: Optional[Tuple[str, ...]],
                project_root: Path) -> bool:
    if lines is None:
        try:
            text = (project_root / finding.path).read_text()
        except OSError:
            return False
        lines = tuple(text.splitlines())
    if not 1 <= finding.line <= len(lines):
        return False
    codes = pragma_codes(lines[finding.line - 1])
    return "all" in codes or rule_matches(finding.rule, codes)


def iter_python_files(paths: Sequence[Path],
                      config: LintConfig) -> List[Path]:
    """Deterministically ordered ``.py`` files under ``paths``.

    ``config.exclude`` entries are project-relative path prefixes;
    matching files are skipped even when a parent directory was passed
    explicitly.
    """
    seen: set = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            rel = _relpath(candidate, config.project_root)
            if any(rel == entry or rel.startswith(entry.rstrip("/") + "/")
                   for entry in config.exclude):
                continue
            out.append(candidate)
    return out


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class AnalysisResult:
    """Outcome of one analysis run."""

    findings: List[Finding]
    n_files: int
    #: Cumulative checker wall-time per rule family, for the JSON
    #: report footer (checker regressions show up in CI logs).
    timings_s: Dict[str, float] = field(default_factory=dict)

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))


def filter_findings(raw: Iterable[Finding], config: LintConfig,
                    select: Sequence[str], ignore: Sequence[str],
                    lines_by_rel: Dict[str, Tuple[str, ...]]
                    ) -> List[Finding]:
    """Post-filter raw findings: selection, per-path tables, pragmas.

    One code path for every finding source, so ``--select``/``--ignore``
    prefixes and ``# reprolint: disable=RULE`` pragmas behave
    uniformly.  ``lines_by_rel`` supplies each linted file's source
    lines for the pragma check.
    """
    findings: List[Finding] = []
    for finding in raw:
        if not rule_enabled(finding.rule, select, ignore):
            continue
        if any(finding.path.startswith(prefix)
               and rule_matches(finding.rule, rules)
               for prefix, rules in config.per_path_ignores.items()):
            continue
        if _suppressed(finding, lines_by_rel.get(finding.path),
                       config.project_root):
            continue
        findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def checker_family(checker: Checker) -> str:
    """Rule family a checker's wall-time is attributed to."""
    if checker.rules:
        return rule_family(checker.rules[0].id)
    return "unknown"


def run_analysis(paths: Sequence[Path], config: LintConfig,
                 select: Optional[Sequence[str]] = None,
                 ignore: Optional[Sequence[str]] = None) -> AnalysisResult:
    """Lint ``paths`` with every registered checker, post-filtered.

    ``select``/``ignore`` override the config's lists when given (the
    CLI passes its flags through here).
    """
    from .checkers import ALL_CHECKERS

    chosen_select = tuple(select) if select is not None else config.select
    chosen_ignore = tuple(ignore) if ignore is not None else config.ignore

    files = iter_python_files(paths, config)
    checkers: List[Checker] = [cls(config) for cls in ALL_CHECKERS]
    raw: List[Finding] = []
    lines_by_rel: Dict[str, Tuple[str, ...]] = {}
    timings: Dict[str, float] = {}

    def timed(checker: Checker, produce: Iterable[Finding]) -> None:
        start = time.perf_counter()
        raw.extend(produce)
        family = checker_family(checker)
        timings[family] = (timings.get(family, 0.0)
                           + time.perf_counter() - start)

    for path in files:
        rel = _relpath(path, config.project_root)
        try:
            source = path.read_text()
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, ValueError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            raw.append(Finding(
                rule=PARSE_RULE.id, path=rel, line=line, col=1,
                message=f"cannot parse file: {exc}",
                hint=PARSE_RULE.hint))
            continue
        ctx = FileContext(path=path, relpath=rel, module=module_name(rel),
                          tree=tree, lines=tuple(source.splitlines()))
        lines_by_rel[rel] = ctx.lines
        for checker in checkers:
            timed(checker, checker.check_file(ctx))

    for checker in checkers:
        timed(checker, checker.finish())

    findings = filter_findings(raw, config, chosen_select, chosen_ignore,
                               lines_by_rel)
    return AnalysisResult(
        findings=findings, n_files=len(files),
        timings_s={k: round(v, 4) for k, v in sorted(timings.items())})
