"""Functional CPU: interpreter and trace capture for the tiny ISA.

Two tracers share the same semantics: the readable reference
interpreter (:class:`Machine`) and the compiled tracer
(:class:`FastMachine`: exec-generated superblocks plus a scalar tail),
selected at capture points by ``REPRO_TRACER`` (:func:`tracer_mode`).
:func:`capture_machine` returns whichever the environment selects.
"""

from typing import Union

from .fast import FastMachine, run_program_fast
from .machine import Machine, MachineError, RunResult, run_program
from .tables import CompiledProgram, compile_program
from .tracer_mode import (TRACER_ENV, TRACER_FAST, TRACER_MODES,
                          TRACER_SCALAR, tracer_mode, use_fast_tracer)
from ..isa.program import Program

__all__ = [
    "Machine", "MachineError", "RunResult", "run_program",
    "FastMachine", "run_program_fast",
    "CompiledProgram", "compile_program",
    "TRACER_ENV", "TRACER_FAST", "TRACER_MODES", "TRACER_SCALAR",
    "tracer_mode", "use_fast_tracer", "capture_machine",
]


def capture_machine(program: Program) -> Union[Machine, FastMachine]:
    """The tracer selected by ``REPRO_TRACER``, ready to ``run``."""
    if use_fast_tracer():
        return FastMachine(program)
    return Machine(program)
