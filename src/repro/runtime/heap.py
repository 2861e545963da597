"""Process heap policy: keep freed engine temporaries for reuse.

A sweep runs hundreds of fast-engine cells in one process, and each
cell allocates and frees a few MB of numpy temporaries.  Under glibc's
default dynamic thresholds much of that memory goes back to the kernel
when it is freed (as an ``munmap`` or a heap trim), so the next cell
faults the same pages in again: tens of thousands of minor page faults
and a noticeable share of system time per warm sweep.

:func:`keep_freed_memory` pins both thresholds at the ceilings glibc's
own dynamic rule converges to, so freed temporaries stay in the heap
and the next cell reuses them:

* ``M_MMAP_THRESHOLD`` = 32 MiB — blocks below it come from the heap,
  not from a private ``mmap`` that is unmapped on free;
* ``M_TRIM_THRESHOLD`` = 64 MiB — the heap top is returned to the
  kernel only once that much is free.

Both are needed: setting the mmap threshold explicitly also turns the
dynamic adjustment off, which leaves trim at its 128 KiB default.

Its two call sites are the fast engine driver
(:func:`repro.core.fast._run_fast`) and Figure 6's direction sweep
(:func:`repro.predictors.evaluate.direction_accuracy_sweep`), which
never reaches that driver; each calls it on its first run in a process,
so setup-only and capture-only work never loads ``ctypes``.  Where ``mallopt`` is missing (not glibc) or refuses
a value, nothing changes.  The policy moves only where memory comes
from, never a simulated number.
"""

from __future__ import annotations

#: ``mallopt`` parameter numbers (glibc ``malloc.h``).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: glibc's ceiling for the dynamic mmap threshold on 64-bit hosts
#: (``DEFAULT_MMAP_THRESHOLD_MAX``) and twice it for trim, the ratio its
#: dynamic rule keeps.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

_applied = False


def _mallopt():
    """The C library's ``mallopt``, or ``None`` where it has none."""
    import ctypes

    try:  # CDLL(None) is the running process's own symbols (POSIX)
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_int)
    fn.restype = ctypes.c_int
    return fn


def keep_freed_memory() -> bool:
    """Apply the heap policy once per process; whether it took effect.

    Later calls do nothing and return ``False``, as does a host whose C
    library has no ``mallopt`` or rejects the mmap threshold.
    """
    global _applied
    if _applied:
        return False
    _applied = True
    mallopt = _mallopt()
    if mallopt is None or not mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        return False
    return bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))
