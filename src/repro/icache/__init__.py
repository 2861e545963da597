"""Instruction-cache model: geometry (normal/extended/self-aligned), banks.

Names load lazily, from the submodule that defines them.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "banks": ("block_lines", "blocks_conflict", "group_conflicts"),
    "geometry": ("CacheGeometry", "EXTENDED", "NORMAL", "SELF_ALIGNED"),
})
