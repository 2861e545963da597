"""Checker registry: every project rule reprolint ships."""

from __future__ import annotations

from typing import List, Tuple, Type

from ..core import Checker, PARSE_RULE, RuleSpec
from .async_safety import AsyncSafetyChecker
from .determinism import DeterminismChecker
from .dtype import DtypeChecker
from .envreg import EnvRegistryChecker
from .exceptions import ExceptionHygieneChecker
from .parity import ParityChecker

#: Registration order is reporting order for equal (path, line, col).
ALL_CHECKERS: Tuple[Type[Checker], ...] = (
    DeterminismChecker,
    DtypeChecker,
    ParityChecker,
    EnvRegistryChecker,
    ExceptionHygieneChecker,
    AsyncSafetyChecker,
)


def all_rules() -> List[RuleSpec]:
    """Every rule id the tool can emit, sorted by id."""
    rules: List[RuleSpec] = [PARSE_RULE]
    for checker in ALL_CHECKERS:
        rules.extend(checker.rules)
    return sorted(rules, key=lambda rule: rule.id)
