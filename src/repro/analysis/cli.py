"""reprolint command line: ``python -m repro.analysis [paths...]``.

Exit codes follow the sanitizer convention the CI job keys off:

* ``0`` — analysis ran and found nothing;
* ``1`` — analysis ran and produced findings;
* ``2`` — usage or configuration error (nothing was analysed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .checkers import all_rules
from .config import ConfigError, LintConfig, load_config
from .core import run_analysis
from .report import render_human, render_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: project-specific static analysis "
                    "enforcing determinism, dtype-safety and "
                    "scalar<->fast parity contracts.",
        epilog="Configuration is read from [tool.reprolint] in the "
               "nearest pyproject.toml; see docs/static-analysis.md "
               "for the rule catalogue.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: "
                             "the configured paths, src/repro)")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule prefixes to enable "
                             "exclusively (e.g. REP1,REP301)")
    parser.add_argument("--ignore", default=None, metavar="RULES",
                        help="comma-separated rule prefixes to "
                             "disable")
    parser.add_argument("--format", choices=("human", "json"),
                        default="human", help="report format")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the report to FILE instead of "
                             "stdout (a human summary still prints)")
    parser.add_argument("--config", default=None, metavar="PYPROJECT",
                        help="explicit pyproject.toml to read "
                             "[tool.reprolint] from")
    parser.add_argument("--isolated", action="store_true",
                        help="ignore pyproject configuration and run "
                             "with built-in defaults (fixture corpora "
                             "are linted this way, since the project "
                             "config excludes them)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _split(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [item.strip() for item in raw.split(",") if item.strip()]


def _resolve_paths(args_paths: Sequence[str],
                   config: LintConfig) -> List[Path]:
    if args_paths:
        return [Path(path) for path in args_paths]
    return [config.project_root / path for path in config.paths]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name}: {rule.summary}")
        return 0

    try:
        config = load_config(
            explicit=Path(args.config) if args.config else None,
            isolated=args.isolated)
    except ConfigError as exc:
        print(f"reprolint: configuration error: {exc}",
              file=sys.stderr)
        return 2

    paths = _resolve_paths(args.paths, config)
    missing = [path for path in paths if not path.exists()]
    if missing:
        names = ", ".join(str(path) for path in missing)
        print(f"reprolint: no such path: {names}", file=sys.stderr)
        return 2

    result = run_analysis(paths, config, select=_split(args.select),
                          ignore=_split(args.ignore))

    if args.format == "json":
        report = render_json(result)
    else:
        report = render_human(result)

    if args.output:
        Path(args.output).write_text(report + "\n")
        total = len(result.findings)
        noun = "finding" if total == 1 else "findings"
        print(f"reprolint: wrote {total} {noun} to {args.output} "
              f"({result.n_files} files checked)")
    else:
        print(report)
    return 1 if result.findings else 0
