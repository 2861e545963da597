"""Experiment runners — one module per paper figure/table.

| Module   | Reproduces                                               |
|----------|----------------------------------------------------------|
| fig6     | blocked vs scalar conditional accuracy, history 6-12     |
| fig7     | separate BIT table size sweep (single block)             |
| fig8     | single vs double selection, GHR 9-12 x {1,2,4,8} STs     |
| table5   | BTB/NLS target-array configurations (SPECint95)          |
| table6   | normal/extended/self-aligned caches, 1 vs 2 blocks       |
| fig9     | per-program BEP breakdown (two-block, self-aligned)      |
| table7   | hardware cost estimates                                  |

Names load lazily: importing one runner, or :mod:`.common`, loads no
other runner.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "common": ("SUITES", "SuiteAggregate", "format_table",
               "instruction_budget", "run_single_block_suite",
               "run_suite"),
    "fig6": ("Fig6Row", "format_fig6", "run_fig6"),
    "fig7": ("Fig7Row", "format_fig7", "run_fig7"),
    "fig8": ("Fig8Row", "format_fig8", "run_fig8"),
    "fig9": ("Fig9Row", "STACK_ORDER", "format_fig9", "run_fig9"),
    "report": ("generate_report", "write_report"),
    "table5": ("Table5Row", "format_table5", "run_table5"),
    "table6": ("Table6Row", "format_table6", "run_table6"),
    "table7": ("format_table7", "run_multi_block_extrapolation",
               "run_table7"),
})
