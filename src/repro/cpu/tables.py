"""Program compilation for the fast tracer: flat decode tables.

The fast tracer never walks :class:`~repro.isa.instructions.Instruction`
objects at run time.  :func:`compile_program` decodes a
:class:`~repro.isa.program.Program` once into a structure-of-arrays form
— per-PC opcode / destination / operand / immediate lists of plain
Python ints, the cheapest thing for the superblock generator and the
scalar tail to index.

Everything here is static: one :class:`CompiledProgram` is built per
program and shared by every superblock compiled for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..isa.program import Program


@dataclass
class CompiledProgram:
    """Flat decode tables for one program (one row per PC)."""

    n_code: int
    data_size: int
    ops: List[int]        #: opcode values
    rd: List[int]         #: destination register
    rs1: List[int]        #: first source register
    rs2: List[int]        #: second source register
    imm: List[int]        #: immediate / absolute target


def compile_program(program: Program) -> CompiledProgram:
    """Decode ``program`` into flat tables."""
    instrs = program.instructions
    return CompiledProgram(
        n_code=len(instrs),
        data_size=program.data_size,
        ops=[int(inst.op) for inst in instrs],
        rd=[inst.rd for inst in instrs],
        rs1=[inst.rs1 for inst in instrs],
        rs2=[inst.rs2 for inst in instrs],
        imm=[inst.imm for inst in instrs],
    )
