"""Branch predictors: counters, history, scalar/blocked PHTs, BAC baseline.

Names load lazily, from the submodule that defines them.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bac": ("BACCost", "blocked_pht_lookups", "evaluate_bac_direction"),
    "blocked": ("BlockedPHT",),
    "counters": ("COUNTER_INIT", "SaturatingCounter",
                 "counter_has_second_chance", "counter_predicts_taken",
                 "counter_update"),
    "evaluate": ("DirectionResult", "direction_accuracy_sweep",
                 "evaluate_blocked_direction", "evaluate_scalar_direction"),
    "ghr": ("BlockOutcomes", "GlobalHistory", "pack_block_outcomes"),
    "scalar": ("INDEX_GHR", "INDEX_GSHARE", "ScalarPHT"),
})
