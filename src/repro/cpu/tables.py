"""Program decode for both tracers: flat decode tables.

Neither tracer walks :class:`~repro.isa.instructions.Instruction`
objects at run time.  :func:`compile_program` decodes a
:class:`~repro.isa.program.Program` once into flat tables — one
``(opcode, rd, rs1, rs2, imm)`` tuple of plain Python ints per PC, the
cheapest thing for the interpreter loop
(:meth:`~repro.cpu.machine.Machine.step`) and the superblock generator
to unpack — plus the per-PC record fields the code fixes statically
(kind, direct target, HALT's fall-through), which trace assembly fills
in instead of recording them per record.

Everything here is static: one :class:`CompiledProgram` is built per
machine and shared by every superblock compiled for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..isa.kinds import OP_KINDS, InstrKind
from ..isa.program import Program


@dataclass
class CompiledProgram:
    """Flat decode tables for one program (one row per PC).

    ``kind``, ``target`` and ``indirect`` describe the control record a
    PC produces: ``target`` is the immediate of a direct transfer and
    ``pc + 1`` for HALT; where ``indirect`` is set (``JR``, ``JALR``,
    ``RET``) only run time knows it.
    """

    n_code: int
    data_size: int
    #: ``(opcode, rd, rs1, rs2, imm)``; ``imm`` is the immediate or the
    #: absolute target.
    code: List[Tuple[int, int, int, int, int]]
    kind: np.ndarray      #: uint8 :class:`InstrKind` values
    target: np.ndarray    #: int64 record target fixed by the code
    indirect: np.ndarray  #: bool, record target read from a register


def compile_program(program: Program) -> CompiledProgram:
    """Decode ``program`` into flat tables."""
    instrs = program.instructions
    kinds = [OP_KINDS[inst.op] for inst in instrs]
    target = [pc + 1 if kind is InstrKind.HALT
              else inst.imm if inst.is_cond_branch or inst.is_direct_jump
              else 0
              for pc, (kind, inst) in enumerate(zip(kinds, instrs))]
    return CompiledProgram(
        n_code=len(instrs),
        data_size=program.data_size,
        code=[(int(inst.op), inst.rd, inst.rs1, inst.rs2, inst.imm)
              for inst in instrs],
        kind=np.array(kinds, dtype=np.uint8),
        target=np.array(target, dtype=np.int64),
        indirect=np.array([inst.is_indirect for inst in instrs], dtype=bool),
    )
