"""Dual-block fetch engine — Section 3's mechanism (Figures 2-5).

Two blocks are fetched per cycle: blocks pair up as (b1,b2), (b3,b4), ...
after a lone cold-start block b0, and each pair's predictions anchor on
the current second block (b0, b2, ...).  This is the N = 2 configuration
of the grouped fetch loop in :mod:`repro.core.multi`, which documents the
mechanism, the selection schemes and the timeline.
"""

from __future__ import annotations

from .config import EngineConfig
from .multi import MultiBlockEngine


class DualBlockEngine(MultiBlockEngine):
    """Fetches two blocks per cycle with select-table second-block
    prediction."""

    def __init__(self, config: EngineConfig) -> None:
        if config.bit_entries is not None:
            raise ValueError(
                "the dual-block engine assumes BIT information is stored in "
                "the instruction cache (paper Section 4.2); bit_entries is "
                "only meaningful for the single-block engine")
        super().__init__(config, n_blocks_per_cycle=2)
