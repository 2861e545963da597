"""Table 6 — cache types: IPB and IPC_f for one- and two-block fetching.

Compares normal (line = block = 8), extended (line 16) and self-aligned
caches using 8 STs and history length 10.  The paper's headline numbers:
the self-aligned cache reaches 10.88 IPC_f on SPECfp95 and over 8 across
SPEC95; dual-block fetching beats single-block by ~40% (int) to ~70% (fp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.config import EngineConfig
from ..core.single import SingleBlockEngine
from ..icache.geometry import GEOMETRY_FACTORIES
from ..runtime.executor import SuiteSpec
from .common import (
    SUITES,
    format_table,
    instruction_budget,
    run_suite_batch,
)

@dataclass(frozen=True)
class Table6Row:
    """One (cache type, suite) row of Table 6."""

    cache_type: str
    suite: str
    line_size: int
    n_banks: int
    ipb: float
    ipc_f_one_block: float
    ipc_f_two_block: float


def run_table6(budget: int = None, history_length: int = 10,
               n_select_tables: int = 8) -> List[Table6Row]:
    """Reproduce Table 6 over both sub-suites."""
    budget = budget or instruction_budget()
    points = []
    specs = []
    for cache_name, factory in GEOMETRY_FACTORIES.items():
        geometry = factory(8)
        config = EngineConfig(
            geometry=geometry,
            history_length=history_length,
            n_select_tables=n_select_tables,
        )
        for suite in SUITES:
            points.append((cache_name, geometry, suite))
            specs.append(SuiteSpec(suite=suite, config=config,
                                   budget=budget,
                                   engine_factory=SingleBlockEngine))
            specs.append(SuiteSpec(suite=suite, config=config,
                                   budget=budget))
    aggregates = run_suite_batch(specs, label="table6")
    rows = []
    for i, (cache_name, geometry, suite) in enumerate(points):
        single, dual = aggregates[2 * i], aggregates[2 * i + 1]
        rows.append(Table6Row(
            cache_type=cache_name,
            suite=suite,
            line_size=geometry.line_size,
            n_banks=geometry.n_banks,
            ipb=dual.ipb,
            ipc_f_one_block=single.ipc_f,
            ipc_f_two_block=dual.ipc_f,
        ))
    return rows


def format_table6(rows: List[Table6Row]) -> str:
    """Render the rows as the paper's Table 6 reads."""
    table = [[row.cache_type, str(row.line_size), str(row.n_banks),
              row.suite, f"{row.ipb:.2f}",
              f"{row.ipc_f_one_block:.2f}", f"{row.ipc_f_two_block:.2f}"]
             for row in rows]
    return format_table(
        ["cache", "line", "banks", "suite", "IPB", "IPC_f 1blk",
         "IPC_f 2blk"], table)
