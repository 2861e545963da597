"""Tiny load/store RISC ISA: opcodes, assembler, builder DSL, programs.

Names load lazily, from the submodule that defines them.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "assembler": ("Assembler", "AssemblyError"),
    "builder": ("BuilderError", "ProgramBuilder"),
    "instructions": ("Instruction",),
    "kinds": ("InstrKind", "OP_KINDS", "classify_op"),
    "opcodes": ("Op", "parse_register"),
    "program": ("Program", "StaticCode"),
})
