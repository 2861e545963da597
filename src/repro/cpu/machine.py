"""Functional interpreter for the tiny RISC ISA.

The machine executes a :class:`~repro.isa.program.Program` and captures the
compressed control-flow trace the fetch simulators consume.  It substitutes
for the paper's Shade/SPARC setup: a real interpreter running real programs,
so branch correlation and call/return structure arise from execution rather
than from a statistical model.

:meth:`Machine.step` is the one per-instruction interpreter loop in
:mod:`repro.cpu`; the fast tracer (:mod:`repro.cpu.fast`) runs its
warm-up blocks and its last stretch before the budget on it.

Semantics notes:

* Registers hold Python ints wrapped to signed 64-bit.
* ``DIV``/``MOD`` truncate toward zero (C semantics); division by zero
  raises :class:`MachineError` — workloads are expected to avoid it.
* Data memory is word-addressed, zero-initialised and bounds-checked.
* ``r0`` reads as zero; writes to it are discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .tables import CompiledProgram, compile_program
from ..isa.kinds import InstrKind
from ..isa.opcodes import CONTROL_OPS, Op
from ..isa.program import Program
from ..trace.record import Trace

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63

_K_COND = int(InstrKind.COND)
_K_HALT = int(InstrKind.HALT)

#: Every opcode's value in :class:`Op` definition order, the order
#: :meth:`Machine.step` unpacks them into its locals.
_OPCODES = tuple(int(op) for op in Op)

#: Opcodes after which a one-block step stops (HALT ends the run anyway).
_TRANSFER_OPS = frozenset(int(op) for op in CONTROL_OPS)


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
    """Executes one program and records its control-flow trace.

    A record stores only what run time decides: every record's PC
    (``_rec_pc``), each conditional's direction (``_rec_taken``) and each
    register-target transfer's target (``_rec_target``).  :meth:`run`
    fills in kind and the code-fixed targets from the program's
    :class:`~repro.cpu.tables.CompiledProgram` tables.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.cp: CompiledProgram = compile_program(program)
        self.regs: List[int] = [0] * 32
        self.mem: List[int] = [0] * self.cp.data_size
        #: Executed instructions of the current run (a one-cell list, so
        #: generated code can charge it too).
        self.ctr: List[int] = [0]
        self._rec_pc: List[int] = []
        self._rec_taken: List[bool] = []
        self._rec_target: List[int] = []

    def run(self, max_instructions: int = 10_000_000) -> RunResult:
        """Execute from the program entry until HALT or the budget.

        Returns the compressed trace.  When the budget is hit, a synthetic
        HALT record is appended (counted as one executed instruction) so the
        trace is always well terminated; ``trace.truncated`` is set.
        Registers and memory carry over from an earlier run.
        """
        ctr = self.ctr
        ctr[0] = 0
        self._clear_records()
        pc, halted = self._execute(self.program.entry, max_instructions)
        truncated = not halted
        if truncated:
            # Budget exhausted: synthesise a HALT record at the next PC so
            # the trace is well terminated (counted as one instruction).
            self._rec_pc.append(pc)
            ctr[0] += 1
        trace = self._assemble(truncated)
        self._clear_records()
        return RunResult(trace=trace, instructions=ctr[0], halted=halted)

    def _execute(self, pc: int, max_instructions: int) -> Tuple[int, bool]:
        """Run from ``pc`` to HALT or the budget; ``(pc, halted)``."""
        return self.step(pc, max_instructions)

    def _clear_records(self) -> None:
        # In place: the fast tracer's generated code holds bound appends.
        del self._rec_pc[:]
        del self._rec_taken[:]
        del self._rec_target[:]

    def _assemble(self, truncated: bool) -> Trace:
        """Build the trace from the record lists and the static tables."""
        cp = self.cp
        pc = np.asarray(self._rec_pc, dtype=np.int64)
        # The budget's synthetic HALT is the last record; its PC may be
        # a conditional or out of range, so it never indexes the tables.
        own = pc[:-1] if truncated else pc
        kind = cp.kind[own]
        taken = kind != _K_HALT
        taken[kind == _K_COND] = np.asarray(self._rec_taken, dtype=bool)
        target = cp.target[own]
        target[cp.indirect[own]] = np.asarray(self._rec_target,
                                              dtype=np.int64)
        if truncated:
            kind = np.append(kind, np.uint8(_K_HALT))
            taken = np.append(taken, False)
            target = np.append(target, np.asarray(
                [self._rec_pc[-1] + 1], dtype=np.int64))
        return Trace(
            entry_pc=self.program.entry,
            n_instructions=self.ctr[0],
            pc=pc,
            kind=kind,
            taken=taken,
            target=target,
            truncated=truncated,
            name=self.program.name,
        )

    def step(self, pc: int, max_instructions: int,
             one_block: bool = False) -> Tuple[int, bool]:
        """Interpret from ``pc`` until HALT or the budget.

        Works on this machine's registers, memory, instruction count
        (``ctr``) and record lists.  With ``one_block`` it also stops
        after the first control transfer (one basic block).  Returns
        the next PC and whether HALT executed.
        """
        code = self.cp.code
        n_code = len(code)
        regs = self.regs
        mem = self.mem
        mem_size = len(mem)
        record = self._rec_pc.append
        record_taken = self._rec_taken.append
        record_target = self._rec_target.append
        ctr = self.ctr
        executed = ctr[0]
        halted = False

        # Opcode ints as locals (fast comparisons in the hot loop),
        # unpacked from one tuple so a one-block step starts cheaply.
        (op_add, op_sub, op_mul, op_div, op_mod, op_and, op_or, op_xor,
         op_sll, op_srl, op_slt, op_seq,
         op_addi, op_andi, op_ori, op_xori, op_slli, op_srli, op_slti,
         op_muli, op_li,
         op_ld, op_st,
         op_beq, op_bne, op_blt, op_bge, op_ble, op_bgt,
         op_j, op_jal, op_jr, op_jalr, op_ret,
         op_nop, op_halt) = _OPCODES

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
                record(pc)
                record_taken(t)
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
                record(pc)
                next_pc = imm
            elif op == op_jal:
                regs[1] = pc + 1
                record(pc)
                next_pc = imm
            elif op == op_jr or op == op_ret:
                dest = regs[rs1]
                record(pc)
                record_target(dest)
                next_pc = dest
            elif op == op_jalr:
                dest = regs[rs1]
                regs[1] = pc + 1
                record(pc)
                record_target(dest)
                next_pc = dest
            elif op == op_nop:
                pass
            elif op == op_halt:
                record(pc)
                halted = True
                break
            else:
                raise MachineError(f"unknown opcode {op} at pc={pc}")

            pc = next_pc
            if one_block and op in _TRANSFER_OPS:
                break

        ctr[0] = executed
        return pc, halted


def run_program(program: Program,
                max_instructions: int = 10_000_000) -> Trace:
    """Convenience wrapper: execute ``program`` and return its trace."""
    return Machine(program).run(max_instructions=max_instructions).trace
