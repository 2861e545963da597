"""Workload registry facade: suites, lookup, cached fetch inputs.

Importing this module loads every workload analog.  The 18 programs mirror
the SPEC95 suite the paper evaluates (8 SPECint95, 10 SPECfp95).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from ..core.config import FetchInput
from ..icache.geometry import CacheGeometry
from ..runtime import cache as disk_cache, profile
from ..trace.blocks import segment_blocks
from .base import REGISTRY, Workload

# Importing registers each analog with REGISTRY.
from . import applu      # noqa: F401
from . import apsi       # noqa: F401
from . import compress   # noqa: F401
from . import fpppp      # noqa: F401
from . import gcc        # noqa: F401
from . import go         # noqa: F401
from . import hydro2d    # noqa: F401
from . import ijpeg      # noqa: F401
from . import kmp        # noqa: F401
from . import li         # noqa: F401
from . import m88ksim    # noqa: F401
from . import mgrid      # noqa: F401
from . import perl       # noqa: F401
from . import su2cor     # noqa: F401
from . import swim       # noqa: F401
from . import tomcatv    # noqa: F401
from . import turb3d     # noqa: F401
from . import vortex     # noqa: F401
from . import wave5      # noqa: F401

#: SPECint95 programs in the paper's Figure 9 order.
SPECINT95: List[str] = ["gcc", "compress", "go", "ijpeg", "li", "m88ksim",
                        "perl", "vortex"]
#: SPECfp95 programs in the paper's Figure 9 order.
SPECFP95: List[str] = ["applu", "apsi", "fpppp", "hydro2d", "mgrid",
                       "su2cor", "swim", "tomcatv", "turb3d", "wave5"]
#: The full suite.
SPEC95: List[str] = SPECFP95 + SPECINT95

#: Bound on the in-memory fetch-input cache.  Entries hold full trace +
#: segmentation arrays, so an unbounded sweep over many geometries/budgets
#: would grow without limit; 64 comfortably covers 18 workloads x the
#: three paper geometries with headroom for custom sweeps.
FETCH_INPUT_CACHE_MAX = 64

_fetch_inputs: "OrderedDict" = OrderedDict()


def get_workload(name: str) -> Workload:
    """Look up a registered workload by SPEC95 program name."""
    return REGISTRY.get(name)


def workload_names(suite: Optional[str] = None) -> List[str]:
    """All registered names, optionally one suite (``"int"``/``"fp"``)."""
    return REGISTRY.names(suite)


def load_trace(name: str, max_instructions: int):
    """Execute (cached) and return the workload's trace."""
    return REGISTRY.trace(name, max_instructions)


def load_fetch_input(name: str, geometry: CacheGeometry,
                     max_instructions: int) -> FetchInput:
    """Cached (trace + static + segmentation) bundle for one workload.

    Traces are cached per (name, budget) and segmentations per geometry on
    top, so parameter sweeps re-run neither the interpreter nor the
    segmenter.  Both layers sit on the persistent disk cache of
    :mod:`repro.runtime.cache`, so warm processes skip them entirely; the
    in-memory layer is LRU-bounded at :data:`FETCH_INPUT_CACHE_MAX`.
    """
    key = (name, max_instructions, geometry)
    cached = _fetch_inputs.get(key)
    if cached is not None:
        _fetch_inputs.move_to_end(key)
        return cached
    trace = REGISTRY.trace(name, max_instructions)
    static = REGISTRY.static_code(name)
    digest = REGISTRY.digest(name)
    with profile.phase("segment"):
        blocks = disk_cache.load_blocks(trace, geometry, name,
                                        max_instructions, digest)
        if blocks is None:
            blocks = segment_blocks(trace, geometry)
            disk_cache.store_blocks(blocks, name, max_instructions, digest)
    fetch_input = FetchInput(trace=trace, static=static, geometry=geometry,
                             blocks=blocks)
    # Identity for the persistent compiled-arrays cache layered on top by
    # repro.core.kernels.compile_fetch_input; the digest makes workload
    # edits invalidate compiled blocks exactly like traces and blocks.
    fetch_input.cache_key = (name, max_instructions, digest)
    _fetch_inputs[key] = fetch_input
    while len(_fetch_inputs) > FETCH_INPUT_CACHE_MAX:
        _fetch_inputs.popitem(last=False)
    return fetch_input


def clear_caches() -> None:
    """Drop all cached programs, traces and fetch inputs (tests).

    Also purges the persistent disk cache (``REPRO_CACHE_DIR``), so a
    clear really does force the next run back through the interpreter.
    """
    REGISTRY.clear_caches()
    _fetch_inputs.clear()
    disk_cache.purge()
