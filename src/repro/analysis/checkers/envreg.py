"""``REPRO_*`` environment-variable registry rules (REP4xx).

Every runtime knob must be declared once, with documentation, in
:mod:`repro.envvars` (``REGISTRY``), every declared knob must be
documented in the README or under ``docs/``, and those docs must name
no ``REPRO_*`` variable the registry lacks.  The checker collects every
exact ``"REPRO_*"`` string literal in the linted tree (the project
convention binds each variable name to a ``*_ENV`` constant or passes
it straight to ``os.environ``), so an undeclared variable fails lint at
the line that names it.

If the registry module is not part of the lint run, the checker falls
back to parsing it from ``<project-root>/src/<module path>``; when it
cannot be found at all, the rules stay silent (partial lints of
unrelated files should not fail on missing context).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import LintConfig
from ..core import Checker, FileContext, Finding, RuleSpec

UNDECLARED_ENV = RuleSpec(
    id="REP401",
    name="undeclared-env-var",
    summary="REPRO_* variable used but not declared in the central "
            "registry.",
    hint="Declare the variable (name, summary, default, owner) in "
         "repro.envvars.REGISTRY.",
)

UNDOCUMENTED_ENV = RuleSpec(
    id="REP402",
    name="undocumented-env-var",
    summary="Registry entry not mentioned in README.md or docs/, or a "
            "REPRO_* name there that the registry lacks.",
    hint="Document the variable in the README environment table (or a "
         "docs/ page) so users can discover it.",
)

_STALE_DOC_HINT = ("Remove the name from the docs, or declare it in "
                   "repro.envvars.REGISTRY if it is still read.")

_ENV_NAME_RE = re.compile(r"^REPRO_[A-Z][A-Z0-9_]*$")
_DOC_NAME_RE = re.compile(r"REPRO_[A-Z][A-Z0-9_]*")


@dataclass(frozen=True)
class _Use:
    name: str
    relpath: str
    line: int
    col: int


class EnvRegistryChecker(Checker):
    """REP401 / REP402."""

    rules = (UNDECLARED_ENV, UNDOCUMENTED_ENV)

    def __init__(self, config: LintConfig) -> None:
        super().__init__(config)
        self._uses: List[_Use] = []
        self._declared: Dict[str, Tuple[str, int, int]] = {}
        #: Where the registry came from ("" until it is collected).
        self._registry_path = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module == self.config.env_registry_module:
            self._collect_registry(ctx.tree, ctx.relpath)
            return ()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and _ENV_NAME_RE.match(node.value):
                self._uses.append(_Use(
                    name=node.value, relpath=ctx.relpath,
                    line=node.lineno, col=node.col_offset + 1))
        return ()

    def finish(self) -> Iterable[Finding]:
        if not self._registry_path:
            self._load_registry_from_disk()
        if not self._declared:
            return ()
        findings: List[Finding] = []
        for use in self._uses:
            if use.name not in self._declared:
                findings.append(Finding(
                    rule=UNDECLARED_ENV.id, path=use.relpath,
                    line=use.line, col=use.col,
                    message=(f"{use.name} is not declared in the "
                             f"{self.config.env_registry_module} "
                             f"registry"),
                    hint=UNDECLARED_ENV.hint))
        docs = self._docs()
        if docs:
            docs_text = "\n".join(text for _, text in docs)
            for name, (relpath, line, col) in \
                    sorted(self._declared.items()):
                if name not in docs_text:
                    findings.append(Finding(
                        rule=UNDOCUMENTED_ENV.id, path=relpath,
                        line=line, col=col,
                        message=(f"registry entry {name} is not "
                                 f"documented in "
                                 f"{'/'.join(self.config.env_docs)}"),
                        hint=UNDOCUMENTED_ENV.hint))
            if self._registry_path in self._project_registry_paths():
                findings.extend(self._stale_doc_names(docs))
        return findings

    def _stale_doc_names(self, docs: List[Tuple[str, str]],
                         ) -> Iterable[Finding]:
        for relpath, text in docs:
            for line, row in enumerate(text.splitlines(), start=1):
                for match in _DOC_NAME_RE.finditer(row):
                    if match.group() in self._declared:
                        continue
                    yield Finding(
                        rule=UNDOCUMENTED_ENV.id, path=relpath,
                        line=line, col=match.start() + 1,
                        message=(f"{match.group()} is documented but "
                                 f"not declared in the "
                                 f"{self.config.env_registry_module} "
                                 f"registry"),
                        hint=_STALE_DOC_HINT)

    # -- registry parsing ----------------------------------------------

    def _collect_registry(self, tree: ast.AST, relpath: str) -> None:
        self._registry_path = relpath
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "EnvVar":
                name = _envvar_name(node)
                if name is not None:
                    self._declared.setdefault(
                        name, (relpath, node.lineno,
                               node.col_offset + 1))

    def _project_registry_paths(self) -> Tuple[str, ...]:
        """Where the project's own registry module lives, relative to
        the project root.  Only that registry is held to the project's
        docs in both directions; a registry elsewhere (a fixture copy)
        is only checked for undocumented entries."""
        parts = self.config.env_registry_module.split(".")
        return (Path("src", *parts).with_suffix(".py").as_posix(),
                Path(*parts).with_suffix(".py").as_posix())

    def _load_registry_from_disk(self) -> None:
        for candidate in self._project_registry_paths():
            path = self.config.project_root / candidate
            if not path.is_file():
                continue
            try:
                tree = ast.parse(path.read_text())
            except (SyntaxError, OSError):
                return
            self._collect_registry(tree, candidate)
            return

    def _docs(self) -> List[Tuple[str, str]]:
        """(path relative to the project root, text) of every doc."""
        root = self.config.project_root
        paths: List[Path] = []
        for entry in self.config.env_docs:
            path = root / entry
            if path.is_file():
                paths.append(path)
            elif path.is_dir():
                paths.extend(sorted(path.rglob("*.md")))
        docs: List[Tuple[str, str]] = []
        for path in paths:
            try:
                docs.append((path.relative_to(root).as_posix(),
                             path.read_text()))
            except OSError:
                continue
        return docs


def _envvar_name(call: ast.Call) -> Optional[str]:
    for kw in call.keywords:
        if kw.arg == "name" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            return kw.value.value
    if call.args and isinstance(call.args[0], ast.Constant) \
            and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None
