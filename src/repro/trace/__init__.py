"""Trace infrastructure: records, segmentation, statistics, synthesis.

Names load lazily, from the submodule that defines them.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "blocks": ("EXIT_FALLTHROUGH", "BlockStream", "segment_blocks"),
    "record": ("Trace",),
    "stats": ("TraceStats", "trace_stats"),
    "synthetic": ("SyntheticSpec", "synthetic_program"),
})
