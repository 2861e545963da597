"""Central registry of every ``REPRO_*`` environment variable.

Every runtime knob the project reads from the environment is declared
here, with documentation, so there is exactly one place to discover
them.  The reprolint rule ``REP401`` (see :mod:`repro.analysis`)
statically verifies that every ``REPRO_*`` name appearing anywhere in
the source is declared in this registry, and ``REP402`` verifies that
every declared entry is documented in the README or under ``docs/``,
and that those docs name no ``REPRO_*`` variable the registry lacks.

Each of the twelve knobs does one of two things:

* it sets state that worker processes read, so a forked sweep or
  service worker sees the same value as its parent: ``REPRO_ENGINE``,
  ``REPRO_TRACER``, ``REPRO_FAULT_SPEC``, ``REPRO_CACHE_DIR``,
  ``REPRO_CACHE_MAX_BYTES``, ``REPRO_TRACE_LEN`` and ``REPRO_PROFILE``;
* or it gives the default of a sweep or qa CLI flag: ``REPRO_JOBS``,
  ``REPRO_RETRIES``, ``REPRO_CELL_TIMEOUT``, ``REPRO_RESUME`` and
  ``REPRO_QA_SEED``.

Modules that *parse* their variable (validation, defaults, typed
accessors) keep doing so at their own config entry points — this module
only owns the declarations and the raw read used by modules that are
not themselves sanctioned config entry points (reprolint ``REP104``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class EnvVar:
    """One declared environment variable.

    Attributes:
        name: The exact ``REPRO_*`` variable name.
        summary: One-line description of what the variable controls.
        default: Human-readable behaviour when unset.
        owner: Dotted module that validates and consumes the variable.
    """

    name: str
    summary: str
    default: str
    owner: str


#: Every environment variable the project reads, alphabetically.
REGISTRY: Tuple[EnvVar, ...] = (
    EnvVar(
        name="REPRO_CACHE_DIR",
        summary="Persistent disk-cache root for traces, blocks, "
                "compiled arrays and sweep journals ('off' disables).",
        default="~/.cache/repro",
        owner="repro.runtime.cache",
    ),
    EnvVar(
        name="REPRO_CACHE_MAX_BYTES",
        summary="Size budget for the persistent disk cache; "
                "least-recently-used artifacts are evicted beyond it.",
        default="4 GiB",
        owner="repro.runtime.cache",
    ),
    EnvVar(
        name="REPRO_CELL_TIMEOUT",
        summary="Per-cell deadline in seconds for parallel sweeps; a "
                "cell over the deadline is killed and retried.",
        default="no deadline",
        owner="repro.runtime.resilience",
    ),
    EnvVar(
        name="REPRO_ENGINE",
        summary="Fetch-engine implementation: 'fast' (vectorized "
                "kernels) or 'scalar' (reference loops), bit-identical.",
        default="fast",
        owner="repro.core.engine_mode",
    ),
    EnvVar(
        name="REPRO_FAULT_SPEC",
        summary="Deterministic fault-injection spec for resilience "
                "testing (e.g. 'crash:cell=3;hang:cell=5').",
        default="no injected faults",
        owner="repro.runtime.faults",
    ),
    EnvVar(
        name="REPRO_JOBS",
        summary="Worker processes for sweep fan-out (integer or "
                "'auto'); serial when unset.",
        default="serial",
        owner="repro.runtime.executor",
    ),
    EnvVar(
        name="REPRO_PROFILE",
        summary="When truthy, print per-cell phase timings to stderr "
                "and record them in sweep reports.",
        default="off",
        owner="repro.runtime.profile",
    ),
    EnvVar(
        name="REPRO_QA_SEED",
        summary="Base seed for the repro.qa differential-fuzzing "
                "campaigns and the test suite's seeded randomness.",
        default="5",
        owner="repro.qa",
    ),
    EnvVar(
        name="REPRO_RESUME",
        summary="Resume labeled sweeps from their checkpoint journal "
                "('0'/'off' forces recomputation).",
        default="on",
        owner="repro.runtime.resilience",
    ),
    EnvVar(
        name="REPRO_RETRIES",
        summary="Retry budget per sweep cell before the sweep reports "
                "a failure.",
        default="2",
        owner="repro.runtime.resilience",
    ),
    EnvVar(
        name="REPRO_TRACER",
        summary="Trace-capture tier: 'fast' (compiled superblocks; "
                "warm-up blocks and the final stretch run on the reference "
                "interpreter's loop) or 'scalar' (reference interpreter "
                "only), bit-identical.",
        default="fast",
        owner="repro.cpu.tracer_switch",
    ),
    EnvVar(
        name="REPRO_TRACE_LEN",
        summary="Dynamic instruction budget per workload for the "
                "experiment runners (>= 1000).",
        default="120000",
        owner="repro.experiments.common",
    ),
)

_BY_NAME = {var.name: var for var in REGISTRY}


def registered_names() -> Tuple[str, ...]:
    """Declared variable names, in registry order."""
    return tuple(var.name for var in REGISTRY)


def describe(name: str) -> EnvVar:
    """The registry entry for ``name`` (KeyError if undeclared)."""
    return _BY_NAME[name]


def read(name: str) -> Optional[str]:
    """Raw value of a *declared* variable (None when unset).

    The sanctioned environment read for modules outside the runtime
    config entry points: reading through the registry guarantees the
    variable is declared and therefore documented.
    """
    if name not in _BY_NAME:
        raise KeyError(
            f"{name} is not declared in repro.envvars.REGISTRY; "
            f"declare it there (with docs) before reading it")
    return os.environ.get(name)
