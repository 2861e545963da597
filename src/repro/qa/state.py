"""Comparable snapshots of engine state and run results.

The differential oracle needs "the engines agree" to mean more than
equal :class:`~repro.core.stats.FetchStats`: after a run, every mutable
predictor structure — PHT counters, select tables, BIT, NLS/BTB target
arrays (including BTB LRU order), RAS — must match between the scalar
and fast paths, or a warm follow-up run would diverge even though this
one's counts agreed.  :func:`engine_state` flattens all of that into
plain lists/tuples that compare with ``==``; :func:`describe_diff`
renders the first few mismatches for humans.

These helpers are the single source of truth for "full engine state":
``tests/core/test_engine_parity.py`` imports them too, so the fuzz
oracle and the fixed-matrix parity tests can never drift apart on what
"identical" means.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["engine_state", "target_state", "stats_snapshot",
           "describe_diff"]


def target_state(targets: Any) -> Any:
    """Comparable snapshot of any target-array implementation.

    BTB entries carry no ``__eq__`` (they are slotted mutable cells), so
    buckets are flattened to ``(key, targets)`` tuples — which also
    captures LRU order, since ``OrderedDict`` iteration is
    recency-ordered.
    """
    if targets is None:
        return None
    if hasattr(targets, "_targets"):                 # NLSTargetArray
        return list(targets._targets)
    if hasattr(targets, "_arrays"):                  # MultiTargetArray
        return [list(a._targets) for a in targets._arrays]
    btb = getattr(targets, "_btb", targets)          # (Dual)BTB
    return [[(key, tuple(entry.targets))
             for key, entry in bucket.items()]
            for bucket in btb._sets]


def engine_state(engine: Any) -> Dict[str, Any]:
    """Every piece of mutable predictor state, in comparable form."""
    state: Dict[str, Any] = {
        "pht": list(engine.pht._counters),
        "targets": target_state(getattr(engine, "targets", None)),
    }
    ras = getattr(engine, "ras", None)
    if ras is not None:
        state["ras"] = (list(ras._slots), ras._top, ras._depth)
    selects = getattr(engine, "selects", None)
    if selects is not None:
        state["selects"] = [list(t._entries) for t in selects]
    bit = getattr(engine, "bit_table", None)
    if bit is not None:
        state["bit"] = (list(bit._lines), list(bit._codes),
                        bit.accesses, bit.stale_hits)
    return state


def stats_snapshot(stats: Any) -> Dict[str, Any]:
    """A FetchStats as a plain dict (dataclass fields, JSON-friendly)."""
    out: Dict[str, Any] = {}
    for name in stats.__dataclass_fields__:
        value = getattr(stats, name)
        if isinstance(value, dict):
            out[name] = {str(k): v for k, v in value.items()}
        elif isinstance(value, list):
            out[name] = [tuple(item) if isinstance(item, (list, tuple))
                         else item for item in value]
        else:
            out[name] = value
    return out


def _first_diffs(a: Any, b: Any, path: str, out: List[str],
                 limit: int) -> None:
    if len(out) >= limit:
        return
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != "
                   f"{type(b).__name__}")
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b), key=str):
            if key not in a or key not in b:
                out.append(f"{path}.{key}: present on one side only")
            elif a[key] != b[key]:
                _first_diffs(a[key], b[key], f"{path}.{key}", out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                _first_diffs(x, y, f"{path}[{i}]", out, limit)
                if len(out) >= limit:
                    return
        return
    out.append(f"{path}: {a!r} != {b!r}")


def describe_diff(scalar: Any, fast: Any, limit: int = 8,
                  label: str = "state") -> Optional[str]:
    """Human-readable first-mismatch report, or None when equal."""
    if scalar == fast:
        return None
    diffs: List[str] = []
    _first_diffs(scalar, fast, label, diffs, limit)
    if not diffs:
        diffs.append(f"{label}: values differ (no leaf-level diff found)")
    return "; ".join(diffs)
