"""Hardware storage cost model (Section 5 / Table 7).

Names load lazily, from the submodule that defines them.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "estimates": ("CostBreakdown", "CostConfig", "bbr_bits", "bit_bits",
                  "dual_block_double_select_cost",
                  "dual_block_single_select_cost", "multi_block_cost",
                  "nls_bits", "pht_bits", "select_table_bits",
                  "single_block_cost"),
})
