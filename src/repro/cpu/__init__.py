"""Functional CPU: interpreter and trace capture for the tiny ISA.

Two tracers share the same semantics: the readable reference
interpreter (:class:`Machine`) and the compiled tracer
(:class:`FastMachine`: exec-generated superblocks, with warm-up blocks
and the final stretch run on the reference interpreter's loop),
selected at capture points by ``REPRO_TRACER`` (:func:`tracer_mode`).
Both share one decode, one record format and one trace assembly.
:func:`capture_machine` returns whichever the environment selects.

Names load lazily: reading ``tracer_mode`` (as ``python -m repro`` does
to validate ``REPRO_TRACER``) loads neither tracer.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "machine": ("Machine", "MachineError", "RunResult", "run_program"),
    "fast": ("FastMachine",),
    "tables": ("CompiledProgram", "compile_program"),
    "tracer_switch": ("TRACER_ENV", "TRACER_FAST", "TRACER_MODES",
                      "TRACER_SCALAR", "tracer_mode", "use_fast_tracer",
                      "capture_machine"),
})
