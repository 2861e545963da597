"""Phase timing for sweeps (``REPRO_PROFILE=1``).

When enabled, the runtime accounts wall-clock per phase — trace
generation, block segmentation, kernel compilation, engine execution and
aggregation — prints a per-cell breakdown to stderr as cells finish, and
attaches the sweep-level totals to the
:class:`~repro.runtime.resilience.SweepReport`.  The vectorized engines
split ``engine`` into its shared-prep and residual-replay halves,
``prep`` and ``residual``; those two nest inside ``engine`` (and a cold
``compile`` nests inside ``prep``), so phases do not sum to wall-clock.
Each per-cell line and the report's totals also carry the minor page
faults the process took meanwhile (``minflt``, the ``ru_minflt``
delta), which shows whether freed memory was reused or faulted in
afresh (see :mod:`repro.runtime.heap`).

The accounting is process-local: under ``REPRO_JOBS>1`` the per-cell
lines come from worker stderr, while the report of the parent process
only covers phases it ran itself (warm-up and aggregation).  Serial
sweeps — the default — account everything.

Profiling never changes a simulated number; it only reads clocks around
existing work.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from typing import Dict, Optional

try:
    import resource
except ImportError:  # not POSIX: no fault counts
    resource = None

#: Environment variable enabling phase timing.
PROFILE_ENV = "REPRO_PROFILE"

#: Canonical phase order for display.
PHASES = ("trace", "segment", "compile", "engine", "prep", "residual",
          "aggregate")

_FALSE = {"", "0", "off", "no", "false", "none"}
_TRUE = {"1", "on", "yes", "true"}

_totals: Dict[str, float] = {}

#: Shard id labelling this process's per-cell output (pool workers of
#: parallel sweeps set it so stderr lines stay attributable per shard).
_shard: int | None = None


def enabled() -> bool:
    """Whether phase timing is on (``REPRO_PROFILE``).

    Unset/empty/0/off = disabled; 1/on/yes/true = enabled.  Anything
    else raises a :class:`ValueError` naming the variable, so typos fail
    eagerly like every other runtime knob.
    """
    raw = os.environ.get(PROFILE_ENV)
    if raw is None:
        return False
    text = raw.strip().lower()
    if text in _FALSE:
        return False
    if text in _TRUE:
        return True
    raise ValueError(
        f"{PROFILE_ENV} must be a boolean ('1'/'0', 'on'/'off'), "
        f"got {raw!r}")


def record(name: str, seconds: float) -> None:
    """Accumulate ``seconds`` against phase ``name``."""
    _totals[name] = _totals.get(name, 0.0) + seconds


@contextmanager
def phase(name: str):
    """Time the enclosed work as one slice of phase ``name``.

    A no-op (beyond one env read) when profiling is off, so call sites
    can wrap hot paths unconditionally.
    """
    if not enabled():
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        record(name, time.perf_counter() - t0)


def minor_faults() -> int:
    """Minor page faults this process has taken so far (0 without
    ``getrusage``)."""
    if resource is None:
        return 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def snapshot() -> Dict[str, float]:
    """Copy of the phase totals accumulated so far in this process."""
    return dict(_totals)


def delta_since(base: Dict[str, float]) -> Dict[str, float]:
    """Phase seconds accumulated since ``base`` (a prior snapshot)."""
    out = {}
    for name, total in _totals.items():
        diff = total - base.get(name, 0.0)
        if diff > 0.0:
            out[name] = diff
    return out


def set_shard(shard: int | None) -> None:
    """Label this process's subsequent per-cell output with a shard id."""
    global _shard
    _shard = shard


def reset() -> None:
    """Drop all accumulated totals and the shard label (tests)."""
    global _shard
    _totals.clear()
    _shard = None


def format_phases(phases: Dict[str, float],
                  minflt: Optional[int] = None) -> str:
    """Render phase seconds in canonical order, e.g. ``engine=1.203s``,
    followed by ``minflt=<n>`` when a fault count is given."""
    names = [p for p in PHASES if p in phases]
    names += [p for p in sorted(phases) if p not in PHASES]
    parts = [f"{name}={phases[name]:.3f}s" for name in names]
    if minflt is not None:
        parts.append(f"minflt={minflt}")
    return " ".join(parts)


def emit_cell(label: str, phases: Dict[str, float],
              minflt: Optional[int] = None) -> None:
    """Print one cell's phase breakdown (and minor faults) to stderr.

    In a pool worker of a parallel sweep the line carries the worker's
    shard label (``s<k>/``), so interleaved worker stderr still
    attributes every cell to its shard.
    """
    if _shard is not None:
        label = f"s{_shard}/{label}"
    print(f"[profile] {label}: {format_phases(phases, minflt)}",
          file=sys.stderr)
