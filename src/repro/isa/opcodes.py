"""Opcode definitions for the tiny load/store RISC ISA.

The reproduction needs a *real* instruction stream — PCs, branch types,
directions and targets that arise from executing actual programs — because the
paper's fetch mechanisms only observe dynamic control flow.  This module
defines the instruction set executed by :mod:`repro.cpu.machine`.

The ISA is a 32-register, word-addressed load/store machine.  One instruction
occupies one address, so instruction-cache lines and fetch blocks map directly
onto PC arithmetic, exactly like the paper's word-granularity SPARC setup.
"""

from __future__ import annotations

import enum


class Op(enum.IntEnum):
    """Machine opcodes.

    Field conventions (see :class:`repro.isa.instructions.Instruction`):

    * ALU register ops use ``rd, rs1, rs2``.
    * ALU immediate ops use ``rd, rs1, imm``.
    * ``LI`` uses ``rd, imm``.
    * ``LD`` is ``rd <- mem[rs1 + imm]``; ``ST`` is ``mem[rs1 + imm] <- rs2``.
    * Conditional branches compare ``rs1`` with ``rs2`` and jump to ``imm``
      (an absolute instruction address after assembly).
    * ``J``/``JAL`` jump to ``imm``; ``JR``/``JALR`` jump to ``reg[rs1]``.
    * ``RET`` is an indirect jump through the link register that the tracer
      classifies as a *return* (the ISA-level distinction the BIT table needs).
    """

    # ALU, register-register
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    MOD = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SLL = enum.auto()
    SRL = enum.auto()
    SLT = enum.auto()
    SEQ = enum.auto()

    # ALU, register-immediate
    ADDI = enum.auto()
    ANDI = enum.auto()
    ORI = enum.auto()
    XORI = enum.auto()
    SLLI = enum.auto()
    SRLI = enum.auto()
    SLTI = enum.auto()
    MULI = enum.auto()
    LI = enum.auto()

    # Memory
    LD = enum.auto()
    ST = enum.auto()

    # Control transfer
    BEQ = enum.auto()
    BNE = enum.auto()
    BLT = enum.auto()
    BGE = enum.auto()
    BLE = enum.auto()
    BGT = enum.auto()
    J = enum.auto()
    JAL = enum.auto()
    JR = enum.auto()
    JALR = enum.auto()
    RET = enum.auto()

    # Misc
    NOP = enum.auto()
    HALT = enum.auto()


#: Conditional branch opcodes (PC-relative in source, absolute once assembled).
COND_BRANCH_OPS = frozenset(
    {Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT}
)

#: Direct unconditional jumps (target known at assembly time).
DIRECT_JUMP_OPS = frozenset({Op.J, Op.JAL})

#: Indirect transfers (target comes from a register at run time).
INDIRECT_OPS = frozenset({Op.JR, Op.JALR, Op.RET})

#: Every opcode that can redirect the PC.
CONTROL_OPS = COND_BRANCH_OPS | DIRECT_JUMP_OPS | INDIRECT_OPS

#: Opcodes that record a return address (calls, for RAS purposes).
CALL_OPS = frozenset({Op.JAL, Op.JALR})

#: Inverse of each conditional branch, used by the builder DSL to branch
#: around a body when the source-level condition is false.
INVERTED_BRANCH = {
    Op.BEQ: Op.BNE,
    Op.BNE: Op.BEQ,
    Op.BLT: Op.BGE,
    Op.BGE: Op.BLT,
    Op.BLE: Op.BGT,
    Op.BGT: Op.BLE,
}

#: Map from the builder's condition mnemonics to branch opcodes.
CONDITION_TO_BRANCH = {
    "eq": Op.BEQ,
    "ne": Op.BNE,
    "lt": Op.BLT,
    "ge": Op.BGE,
    "le": Op.BLE,
    "gt": Op.BGT,
}

NUM_REGISTERS = 32

#: Register aliases.  ``r0`` is hardwired to zero; ``ra`` receives return
#: addresses from ``JAL``/``JALR``; ``sp`` is the builder's stack pointer.
REG_ALIASES = {"zero": 0, "ra": 1, "sp": 2}


#: Register number of every valid ``int``, ``rN`` name and alias: the
#: lookup that resolves what the assembler passes, in one probe.
_REGISTER_NUMBERS = {
    **{num: num for num in range(NUM_REGISTERS)},
    **{f"r{num}": num for num in range(NUM_REGISTERS)},
    **REG_ALIASES,
}


def parse_register(name) -> int:
    """Return the register number for ``name``.

    Accepts an integer, an ``rN`` string, or an alias (``zero``, ``ra``,
    ``sp``).  Raises :class:`ValueError` for anything out of range.
    """
    # Exact types only: ``True`` and ``1.0`` hash like ``1``.
    if type(name) is int or type(name) is str:
        num = _REGISTER_NUMBERS.get(name)
        if num is not None:
            return num
    if isinstance(name, bool):  # bool is an int subclass; reject explicitly
        raise ValueError(f"invalid register: {name!r}")
    if isinstance(name, int):
        num = name
    elif isinstance(name, str):
        if name in REG_ALIASES:
            num = REG_ALIASES[name]
        elif name.startswith("r") and name[1:].isdigit():
            num = int(name[1:])
        else:
            raise ValueError(f"invalid register: {name!r}")
    else:
        raise ValueError(f"invalid register: {name!r}")
    if not 0 <= num < NUM_REGISTERS:
        raise ValueError(f"register out of range: {name!r}")
    return num
