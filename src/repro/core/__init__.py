"""Core contribution: multiple branch and block prediction fetch engines.

Names load lazily: importing this package, or a module inside it, loads
no engine until one of its names is read.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "config": ("EngineConfig", "FetchInput", "TARGET_BTB", "TARGET_NLS"),
    "dual": ("DualBlockEngine",),
    "engine_common": ("ActualBlock", "BlockCursor", "EARLY_TAKEN",
                      "LATE_TAKEN", "MATCH", "classify_divergence",
                      "target_misfetch_kind"),
    "multi": ("MultiBlockEngine", "MultiTargetArray"),
    "penalties": ("DOUBLE_SELECT", "PenaltyKind", "SINGLE_SELECT",
                  "penalty_cycles", "penalty_cycles_slot", "table3"),
    "recovery": ("RecoveryEntry", "recovery_entry_bits"),
    "select_table": ("SelectEntry", "SelectTable"),
    "selection": ("BlockPrediction", "CodeWindowCache",
                  "FALLTHROUGH_SELECTOR", "SRC_ARRAY", "SRC_FALLTHROUGH",
                  "SRC_NEAR", "SRC_RAS", "Selector", "walk_block"),
    "single": ("SingleBlockEngine",),
    "stats": ("FetchStats",),
    "two_ahead": ("TwoBlockAheadEngine",),
})
