"""Functional interpreter for the tiny RISC ISA.

The machine executes a :class:`~repro.isa.program.Program` and captures the
compressed control-flow trace the fetch simulators consume.  It substitutes
for the paper's Shade/SPARC setup: a real interpreter running real programs,
so branch correlation and call/return structure arise from execution rather
than from a statistical model.

Semantics notes:

* Registers hold Python ints wrapped to signed 64-bit.
* ``DIV``/``MOD`` truncate toward zero (C semantics); division by zero
  raises :class:`MachineError` — workloads are expected to avoid it.
* Data memory is word-addressed, zero-initialised and bounds-checked.
* ``r0`` reads as zero; writes to it are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.kinds import OP_KINDS, InstrKind
from ..isa.opcodes import Op
from ..isa.program import Program
from ..trace.record import Trace

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63

_K_COND = int(InstrKind.COND)
_K_JUMP = int(InstrKind.JUMP)
_K_CALL = int(InstrKind.CALL)
_K_RETURN = int(InstrKind.RETURN)
_K_INDIRECT = int(InstrKind.INDIRECT)
_K_HALT = int(InstrKind.HALT)


def _wrap(value: int) -> int:
    """Wrap a Python int to signed 64-bit."""
    value &= _WORD_MASK
    return value - (1 << 64) if value & _SIGN_BIT else value


class MachineError(Exception):
    """Runtime fault: bad memory access, division by zero, bad indirect PC."""


@dataclass
class RunResult:
    """Outcome of :meth:`Machine.run`."""

    trace: Trace
    instructions: int
    halted: bool  #: True when the program executed HALT before the budget.


class Machine:
    """Executes one program and records its control-flow trace."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.regs = [0] * 32
        self.mem = [0] * program.data_size
        # Pre-decode into tuples of plain ints for dispatch speed.
        self._code = [
            (int(i.op), i.rd, i.rs1, i.rs2, i.imm)
            for i in program.instructions
        ]
        self._kinds = [int(OP_KINDS[i.op]) for i in program.instructions]

    def run(self, max_instructions: int = 10_000_000) -> RunResult:
        """Execute from the program entry until HALT or the budget.

        Returns the compressed trace.  When the budget is hit, a synthetic
        HALT record is appended (counted as one executed instruction) so the
        trace is always well terminated; ``trace.truncated`` is set.
        """
        code = self._code
        kinds = self._kinds
        regs = self.regs
        mem = self.mem
        n_code = len(code)
        mem_size = len(mem)

        rec_pc = []
        rec_kind = []
        rec_taken = []
        rec_target = []

        pc = self.program.entry
        entry_pc = pc
        executed = 0
        halted = False
        truncated = False

        # Opcode ints hoisted to locals (fast comparisons in the hot loop).
        op_add = int(Op.ADD); op_sub = int(Op.SUB); op_mul = int(Op.MUL)
        op_div = int(Op.DIV); op_mod = int(Op.MOD); op_and = int(Op.AND)
        op_or = int(Op.OR); op_xor = int(Op.XOR); op_sll = int(Op.SLL)
        op_srl = int(Op.SRL); op_slt = int(Op.SLT); op_seq = int(Op.SEQ)
        op_addi = int(Op.ADDI); op_andi = int(Op.ANDI); op_ori = int(Op.ORI)
        op_xori = int(Op.XORI); op_slli = int(Op.SLLI); op_srli = int(Op.SRLI)
        op_slti = int(Op.SLTI); op_muli = int(Op.MULI); op_li = int(Op.LI)
        op_ld = int(Op.LD); op_st = int(Op.ST)
        op_beq = int(Op.BEQ); op_bne = int(Op.BNE); op_blt = int(Op.BLT)
        op_bge = int(Op.BGE); op_ble = int(Op.BLE); op_bgt = int(Op.BGT)
        op_j = int(Op.J); op_jal = int(Op.JAL); op_jr = int(Op.JR)
        op_jalr = int(Op.JALR); op_ret = int(Op.RET)
        op_nop = int(Op.NOP); op_halt = int(Op.HALT)

        while executed < max_instructions:
            if not 0 <= pc < n_code:
                raise MachineError(f"PC out of range: {pc}")
            op, rd, rs1, rs2, imm = code[pc]
            executed += 1
            next_pc = pc + 1

            if op == op_addi:
                if rd:
                    regs[rd] = _wrap(regs[rs1] + imm)
            elif op == op_ld:
                addr = regs[rs1] + imm
                if not 0 <= addr < mem_size:
                    raise MachineError(f"load out of range at pc={pc}: {addr}")
                if rd:
                    regs[rd] = mem[addr]
            elif op == op_st:
                addr = regs[rs1] + imm
                if not 0 <= addr < mem_size:
                    raise MachineError(f"store out of range at pc={pc}: {addr}")
                mem[addr] = regs[rs2]
            elif op == op_add:
                if rd:
                    regs[rd] = _wrap(regs[rs1] + regs[rs2])
            elif op == op_beq or op == op_bne or op == op_blt \
                    or op == op_bge or op == op_ble or op == op_bgt:
                a = regs[rs1]
                b = regs[rs2]
                if op == op_beq:
                    t = a == b
                elif op == op_bne:
                    t = a != b
                elif op == op_blt:
                    t = a < b
                elif op == op_bge:
                    t = a >= b
                elif op == op_ble:
                    t = a <= b
                else:
                    t = a > b
                rec_pc.append(pc)
                rec_kind.append(_K_COND)
                rec_taken.append(t)
                rec_target.append(imm)
                if t:
                    next_pc = imm
            elif op == op_sub:
                if rd:
                    regs[rd] = _wrap(regs[rs1] - regs[rs2])
            elif op == op_li:
                if rd:
                    regs[rd] = _wrap(imm)
            elif op == op_mul:
                if rd:
                    regs[rd] = _wrap(regs[rs1] * regs[rs2])
            elif op == op_muli:
                if rd:
                    regs[rd] = _wrap(regs[rs1] * imm)
            elif op == op_and:
                if rd:
                    regs[rd] = regs[rs1] & regs[rs2]
            elif op == op_or:
                if rd:
                    regs[rd] = regs[rs1] | regs[rs2]
            elif op == op_xor:
                if rd:
                    regs[rd] = regs[rs1] ^ regs[rs2]
            elif op == op_andi:
                if rd:
                    regs[rd] = regs[rs1] & imm
            elif op == op_ori:
                if rd:
                    regs[rd] = regs[rs1] | imm
            elif op == op_xori:
                if rd:
                    regs[rd] = regs[rs1] ^ imm
            elif op == op_sll:
                if rd:
                    regs[rd] = _wrap(regs[rs1] << (regs[rs2] & 63))
            elif op == op_srl:
                if rd:
                    regs[rd] = (regs[rs1] & _WORD_MASK) >> (regs[rs2] & 63)
            elif op == op_slli:
                if rd:
                    regs[rd] = _wrap(regs[rs1] << (imm & 63))
            elif op == op_srli:
                if rd:
                    regs[rd] = (regs[rs1] & _WORD_MASK) >> (imm & 63)
            elif op == op_slt:
                if rd:
                    regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
            elif op == op_slti:
                if rd:
                    regs[rd] = 1 if regs[rs1] < imm else 0
            elif op == op_seq:
                if rd:
                    regs[rd] = 1 if regs[rs1] == regs[rs2] else 0
            elif op == op_div or op == op_mod:
                b = regs[rs2]
                if b == 0:
                    raise MachineError(f"division by zero at pc={pc}")
                a = regs[rs1]
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                if op == op_div:
                    if rd:
                        regs[rd] = _wrap(q)
                else:
                    if rd:
                        regs[rd] = _wrap(a - q * b)
            elif op == op_j:
                rec_pc.append(pc)
                rec_kind.append(_K_JUMP)
                rec_taken.append(True)
                rec_target.append(imm)
                next_pc = imm
            elif op == op_jal:
                regs[1] = pc + 1
                rec_pc.append(pc)
                rec_kind.append(_K_CALL)
                rec_taken.append(True)
                rec_target.append(imm)
                next_pc = imm
            elif op == op_jr or op == op_ret:
                dest = regs[rs1]
                rec_pc.append(pc)
                rec_kind.append(_K_RETURN if op == op_ret else _K_INDIRECT)
                rec_taken.append(True)
                rec_target.append(dest)
                next_pc = dest
            elif op == op_jalr:
                dest = regs[rs1]
                regs[1] = pc + 1
                rec_pc.append(pc)
                rec_kind.append(_K_CALL)
                rec_taken.append(True)
                rec_target.append(dest)
                next_pc = dest
            elif op == op_nop:
                pass
            elif op == op_halt:
                rec_pc.append(pc)
                rec_kind.append(_K_HALT)
                rec_taken.append(False)
                rec_target.append(pc + 1)
                halted = True
                break
            else:
                raise MachineError(f"unknown opcode {op} at pc={pc}")

            pc = next_pc

        if not halted:
            # Budget exhausted: synthesise a HALT record at the next PC so
            # the trace is well terminated (counted as one instruction).
            truncated = True
            rec_pc.append(pc)
            rec_kind.append(_K_HALT)
            rec_taken.append(False)
            rec_target.append(pc + 1)
            executed += 1

        trace = Trace.from_lists(
            entry_pc=entry_pc,
            n_instructions=executed,
            pc=rec_pc,
            kind=rec_kind,
            taken=rec_taken,
            target=rec_target,
            truncated=truncated,
            name=self.program.name,
        )
        return RunResult(trace=trace, instructions=executed, halted=halted)


def run_program(program: Program,
                max_instructions: int = 10_000_000) -> Trace:
    """Convenience wrapper: execute ``program`` and return its trace."""
    return Machine(program).run(max_instructions=max_instructions).trace
