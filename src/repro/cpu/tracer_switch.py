"""The ``REPRO_TRACER`` switch between scalar and vectorized trace capture.

Trace capture has two implementations of the same semantics, mirroring
the ``REPRO_ENGINE`` split of :mod:`repro.core.engine_mode`:

* ``scalar`` — the reference interpreter of :mod:`repro.cpu.machine`,
  kept as the readable ground truth;
* ``fast`` (default) — the compiled tracer of :mod:`repro.cpu.fast`:
  exec-generated superblocks, with warm-up blocks and the last stretch
  before the budget run on the reference interpreter's loop, locked
  bit-exact against the scalar machine by the tracer parity suite, the
  pinned trace digests and the qa differential oracle.

The knob follows the other runtime environment variables: validated
eagerly (a bad value raises :class:`ValueError` naming the variable)
and honoured by :meth:`repro.workloads.base.WorkloadRegistry.trace` and
:meth:`repro.core.config.FetchInput.from_program`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .. import envvars

if TYPE_CHECKING:
    from ..isa.program import Program
    from .fast import FastMachine
    from .machine import Machine

#: Environment variable selecting the trace-capture implementation.
TRACER_ENV = "REPRO_TRACER"

TRACER_SCALAR = "scalar"
TRACER_FAST = "fast"

#: Accepted values, in display order.
TRACER_MODES = (TRACER_SCALAR, TRACER_FAST)


def tracer_mode() -> str:
    """Selected tracer implementation from ``REPRO_TRACER``.

    Unset or empty defaults to ``fast``.  Anything other than ``scalar``
    or ``fast`` raises a :class:`ValueError` naming the variable.
    """
    raw = envvars.read(TRACER_ENV)
    if raw is None or not raw.strip():
        return TRACER_FAST
    text = raw.strip().lower()
    if text in TRACER_MODES:
        return text
    raise ValueError(
        f"{TRACER_ENV} must be one of {'/'.join(TRACER_MODES)}, "
        f"got {raw!r}")


def use_fast_tracer() -> bool:
    """True when the compiled fast tracer should capture traces."""
    return tracer_mode() == TRACER_FAST


def capture_machine(program: Program) -> Union[Machine, FastMachine]:
    """The tracer selected by ``REPRO_TRACER``, ready to ``run``."""
    if use_fast_tracer():
        from .fast import FastMachine

        return FastMachine(program)
    from .machine import Machine

    return Machine(program)
