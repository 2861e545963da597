"""Shard-equivalence oracle: sharded scheduling == serial, bit-exact.

The shard scheduler's whole contract is that it only moves *where and
when* cells run, never what they compute — a sweep sharded any which
way must merge into exactly the serial answer.  This oracle checks that
contract with real engine work: it derives a small sweep from one
:class:`~repro.qa.cases.QACase` (the case at a clamped budget, varied
over a few history lengths), computes the serial baseline, then replays
the same cells through the *real* :class:`~repro.runtime.shard.
ShardScheduler` under the discrete-event testbed of
:mod:`repro.runtime.sim` — skewed cell costs, mixed worker speeds, and
every shard count in :data:`SHARD_COUNTS` — and requires every cell's
statistics *and* full predictor state to land bit-exact at its index.

The simulated schedules are fault-free (``crash_rate=0``, ``retries=0``)
on purpose: injected crashes with an exhausted retry budget would fail
cells deterministically and report scheduler findings for behaviour the
fault model caused.  Crash *recovery* equivalence is covered by the
runtime's own suites; this oracle isolates the routing question.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from ..runtime import sim
from .cases import QACase, case_engine, is_valid_case
from .state import describe_diff, engine_state, stats_snapshot

__all__ = ["SHARD_COUNTS", "equivalence_cells",
           "check_shard_equivalence"]

#: Shard counts every case's derived sweep is replayed under.
SHARD_COUNTS = (1, 2, 4)

#: Budget clamp for the derived sweep (the oracle runs each cell once
#: serially plus once per shard count, so cells must stay small).
_EQUIV_BUDGET = 2000

#: History lengths the derived sweep varies over (plus the case's own).
_HISTORY_VARIANTS = (2, 4, 6)


def equivalence_cells(case: QACase) -> List[QACase]:
    """Derive the small sweep the shard oracle replays for ``case``.

    Variants of the case over a few history lengths, deduplicated and
    validity-gated, each clamped to :data:`_EQUIV_BUDGET` with one
    repeat and no recovery/timeline tracking (those knobs probe engine
    fallbacks, not scheduling).
    """
    base = replace(case, budget=min(case.budget, _EQUIV_BUDGET),
                   repeats=1, track_recovery=False,
                   record_timeline=False)
    lengths: List[int] = list(_HISTORY_VARIANTS)
    own = base.config.get("history_length")
    if isinstance(own, int):
        lengths.append(own)
    cells: List[QACase] = []
    seen = set()
    for length in lengths:
        cell = replace(base, config={**base.config,
                                     "history_length": length})
        digest = cell.digest()
        if digest in seen or not is_valid_case(cell):
            continue
        seen.add(digest)
        cells.append(cell)
    return cells


def _outcome(cell: QACase, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell on a fresh engine; stats + full state snapshot."""
    engine = case_engine(cell)
    stats = engine.run(inputs[cell.digest()])
    return {"stats": stats_snapshot(stats),
            "state": engine_state(engine)}


def check_shard_equivalence(case: QACase) -> Optional[str]:
    """Sharded replays of ``case``'s derived sweep match serial, or why.

    Returns ``None`` when every shard count reproduces the serial
    baseline bit-exact (and every simulated schedule holds the
    scheduling invariants), else a one-line reason.
    """
    cells = equivalence_cells(case)
    inputs: Dict[str, Any] = {}
    runnable: List[QACase] = []
    for cell in cells:
        try:
            inputs[cell.digest()] = cell.fetch_input()
        except Exception:
            continue  # an unbuildable workload is not a scheduler bug
        runnable.append(cell)
    if len(runnable) < 2:
        return None  # nothing to schedule across shards
    try:
        baseline = [_outcome(cell, inputs) for cell in runnable]
    except Exception:
        return None  # a serial crash is the differential oracle's find

    def run_cell(cell: QACase) -> Dict[str, Any]:
        return _outcome(cell, inputs)

    for n_shards in SHARD_COUNTS:
        spec = sim.SimSpec(seed=int(case.digest(8), 16),
                           n_cells=len(runnable), n_shards=n_shards,
                           n_workers=min(2, len(runnable)),
                           cost_model="skewed",
                           speed_model="mixed", retries=0)
        try:
            result = sim.simulate(spec, cells=runnable,
                                  execute=run_cell)
        except Exception as exc:
            return (f"sharded replay (n_shards={n_shards}) crashed "
                    f"on a cell the serial baseline ran clean: "
                    f"{type(exc).__name__}: {exc}")
        problems = sim.verify_invariants(result)
        if problems:
            return (f"sharded replay (n_shards={n_shards}) broke a "
                    f"scheduling invariant: {problems[0]}")
        for index in range(len(runnable)):
            got = result.results[index]
            if got is None:
                return (f"sharded replay (n_shards={n_shards}) "
                        f"produced no result for cell {index}")
            for part in ("stats", "state"):
                diff = describe_diff(
                    baseline[index][part], got[part],
                    label=f"n_shards={n_shards} cell {index} {part}")
                if diff is not None:
                    return diff
    return None
