"""Target machinery: NLS/BTB target arrays, return stack, BIT tables.

Names load lazily, from the submodule that defines them.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "bit": ("BITTable", "BitCode", "COND_CODES", "NEAR_BLOCK_LINE_OFFSET",
            "encode_instruction", "encode_window", "near_block_target"),
    "btb": ("BlockBTB", "DualBTBTargetArray"),
    "nls": ("NLSTargetArray",),
    "ras": ("ReturnAddressStack",),
})
