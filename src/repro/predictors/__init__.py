"""Branch predictors: counters, history, scalar/blocked PHTs, BAC baseline."""

from .bac import BACCost, blocked_pht_lookups, evaluate_bac_direction
from .blocked import BlockedPHT
from .counters import (
    COUNTER_INIT,
    SaturatingCounter,
    counter_has_second_chance,
    counter_predicts_taken,
    counter_update,
)
from .evaluate import (
    DirectionResult,
    direction_accuracy_sweep,
    evaluate_blocked_direction,
    evaluate_scalar_direction,
)
from .ghr import BlockOutcomes, GlobalHistory, pack_block_outcomes
from .scalar import INDEX_GHR, INDEX_GSHARE, ScalarPHT

__all__ = [
    "BACCost",
    "BlockOutcomes",
    "BlockedPHT",
    "COUNTER_INIT",
    "DirectionResult",
    "GlobalHistory",
    "INDEX_GHR",
    "INDEX_GSHARE",
    "SaturatingCounter",
    "ScalarPHT",
    "blocked_pht_lookups",
    "counter_has_second_chance",
    "counter_predicts_taken",
    "counter_update",
    "direction_accuracy_sweep",
    "evaluate_bac_direction",
    "evaluate_blocked_direction",
    "evaluate_scalar_direction",
    "pack_block_outcomes",
]
