"""FastMachine: the compiled trace-capture driver.

Drop-in replacement for :class:`repro.cpu.machine.Machine` behind the
``REPRO_TRACER=fast`` knob.  Execution runs through two tiers sharing
one architectural state (register list, data memory list, instruction
counter):

1. **Generated superblocks** (:mod:`repro.cpu.codegen`) — the whole hot
   path: straight-line runs, calls and loop bodies.  Compiled lazily
   per entry PC once it has been dispatched :data:`SUPERBLOCK_WARMUP`
   times (until then its basic block steps on the scalar tail), so
   indirect jumps to arbitrary addresses just materialise new
   superblocks, and entry PCs reached only a few times never compile.
2. **A scalar tail** — a per-instruction loop identical to
   :meth:`Machine.run`, used for those warm-up blocks and for the final
   stretch before the instruction budget, so truncation lands on
   exactly the same instruction as the interpreter.

The dispatch invariant: superblocks are only entered while the executed
count is below ``soft = max_instructions - SUPERBLOCK_CAP``, and one
superblock call consumes at most ``SUPERBLOCK_CAP`` instructions, so
the tail always takes over strictly before the budget and replicates
the interpreter's final records and synthetic-HALT truncation bit for
bit.

Records accumulate as Python lists of what only run time knows: every
record's PC, each conditional's direction and each register-target
transfer's target.  ``run`` fills in the rest from the program's static
tables and builds one :class:`~repro.trace.record.Trace`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from .codegen import SUPERBLOCK_CAP, SUPERBLOCK_WARMUP, compile_superblock
from .machine import MachineError, RunResult, _wrap
from .tables import CompiledProgram, compile_program
from ..isa.kinds import InstrKind
from ..isa.opcodes import CONTROL_OPS, Op
from ..isa.program import Program
from ..trace.record import Trace

_WORD_MASK = (1 << 64) - 1

_K_COND = int(InstrKind.COND)
_K_HALT = int(InstrKind.HALT)

#: Opcodes after which a warm-up step stops (HALT ends the run anyway).
_TRANSFER_OPS = frozenset(int(op) for op in CONTROL_OPS)

_ADD = int(Op.ADD); _SUB = int(Op.SUB); _MUL = int(Op.MUL)
_DIV = int(Op.DIV); _MOD = int(Op.MOD); _AND = int(Op.AND)
_OR = int(Op.OR); _XOR = int(Op.XOR); _SLL = int(Op.SLL)
_SRL = int(Op.SRL); _SLT = int(Op.SLT); _SEQ = int(Op.SEQ)
_ADDI = int(Op.ADDI); _ANDI = int(Op.ANDI); _ORI = int(Op.ORI)
_XORI = int(Op.XORI); _SLLI = int(Op.SLLI); _SRLI = int(Op.SRLI)
_SLTI = int(Op.SLTI); _MULI = int(Op.MULI); _LI = int(Op.LI)
_LD = int(Op.LD); _ST = int(Op.ST)
_BEQ = int(Op.BEQ); _BNE = int(Op.BNE); _BLT = int(Op.BLT)
_BGE = int(Op.BGE); _BLE = int(Op.BLE); _BGT = int(Op.BGT)
_J = int(Op.J); _JAL = int(Op.JAL); _JR = int(Op.JR)
_JALR = int(Op.JALR); _RET = int(Op.RET)
_NOP = int(Op.NOP); _HALT = int(Op.HALT)


class FastMachine:
    """Executes one program with the compiled fast tracer.

    Mirrors the :class:`~repro.cpu.machine.Machine` interface —
    ``regs``/``mem`` inspection and ``run`` — with the same register and
    data memory lists.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.cp: CompiledProgram = compile_program(program)
        self.regs: List[int] = [0] * 32
        self.mem: List[int] = [0] * self.cp.data_size
        self.ctr: List[int] = [0]
        self._hlt: List[int] = [0]
        self._rec_pc: List[int] = []
        self._rec_taken: List[bool] = []
        self._rec_target: List[int] = []
        self._fns: Dict[int, Callable[[], int]] = {}
        self._ns = {
            "R": self.regs,
            "mem": self.mem,
            "ap": self._rec_pc.append,
            "at": self._rec_taken.append,
            "ag": self._rec_target.append,
            "ctr": self.ctr,
            "hlt": self._hlt,
        }

    # -- public API -----------------------------------------------------

    def run(self, max_instructions: int = 10_000_000) -> RunResult:
        """Execute from the entry; same contract as :meth:`Machine.run`."""
        halted, truncated, executed = self._execute(max_instructions)
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
        trace = Trace(
            entry_pc=self.program.entry,
            n_instructions=executed,
            pc=pc,
            kind=kind,
            taken=taken,
            target=target,
            truncated=truncated,
            name=self.program.name,
        )
        # Free the record lists in place: the generated superblocks hold
        # their bound appends.
        del self._rec_pc[:]
        del self._rec_taken[:]
        del self._rec_target[:]
        return RunResult(trace=trace, instructions=executed, halted=halted)

    # -- execution ------------------------------------------------------

    def _execute(self, max_instructions: int) -> Tuple[bool, bool, int]:
        ctr = self.ctr
        hlt = self._hlt
        fns = self._fns
        warm: Dict[int, int] = {}
        soft = max_instructions - SUPERBLOCK_CAP
        pc = self.program.entry
        halted = False

        while ctr[0] < soft:
            fn = fns.get(pc)
            if fn is None:
                seen = warm.get(pc, 0)
                if seen < SUPERBLOCK_WARMUP:
                    warm[pc] = seen + 1
                    pc, halted = self._scalar_tail(pc, max_instructions,
                                                   one_block=True)
                    if halted:
                        break
                    continue
                fn = fns[pc] = compile_superblock(self.cp, pc, self._ns)
            pc = fn()
            if hlt[0]:
                halted = True
                break

        if not halted:
            pc, halted = self._scalar_tail(pc, max_instructions)

        truncated = False
        if not halted:
            # Budget exhausted: synthesise a HALT record at the next PC
            # (counted as one instruction), exactly like the interpreter.
            self._rec_pc.append(pc)
            ctr[0] += 1
            truncated = True
        return halted, truncated, ctr[0]

    def _scalar_tail(self, pc: int, max_instructions: int,
                     one_block: bool = False) -> Tuple[int, bool]:
        """Per-instruction execution, up to the budget.

        A transliteration of :meth:`Machine.run`'s loop operating on
        this machine's state, so the last ``<= SUPERBLOCK_CAP``
        instructions — and any fault inside them — are bit-identical.
        With ``one_block`` it also stops after the first control
        transfer (a warm-up step of one basic block).
        """
        cp = self.cp
        ops = cp.ops
        rds = cp.rd
        rs1s = cp.rs1
        rs2s = cp.rs2
        imms = cp.imm
        regs = self.regs
        mem = self.mem
        n_code = cp.n_code
        mem_size = cp.data_size
        ctr = self.ctr
        rec_pc = self._rec_pc
        rec_taken = self._rec_taken
        rec_target = self._rec_target

        halted = False
        while ctr[0] < max_instructions:
            if not 0 <= pc < n_code:
                raise MachineError(f"PC out of range: {pc}")
            op = ops[pc]
            rd = rds[pc]
            rs1 = rs1s[pc]
            rs2 = rs2s[pc]
            imm = imms[pc]
            ctr[0] += 1
            next_pc = pc + 1

            if op == _ADDI:
                if rd:
                    regs[rd] = _wrap(regs[rs1] + imm)
            elif op == _LD:
                addr = regs[rs1] + imm
                if not 0 <= addr < mem_size:
                    raise MachineError(
                        f"load out of range at pc={pc}: {addr}")
                if rd:
                    regs[rd] = mem[addr]
            elif op == _ST:
                addr = regs[rs1] + imm
                if not 0 <= addr < mem_size:
                    raise MachineError(
                        f"store out of range at pc={pc}: {addr}")
                mem[addr] = regs[rs2]
            elif op == _ADD:
                if rd:
                    regs[rd] = _wrap(regs[rs1] + regs[rs2])
            elif op == _BEQ or op == _BNE or op == _BLT \
                    or op == _BGE or op == _BLE or op == _BGT:
                a = regs[rs1]
                b = regs[rs2]
                if op == _BEQ:
                    t = a == b
                elif op == _BNE:
                    t = a != b
                elif op == _BLT:
                    t = a < b
                elif op == _BGE:
                    t = a >= b
                elif op == _BLE:
                    t = a <= b
                else:
                    t = a > b
                rec_pc.append(pc)
                rec_taken.append(t)
                if t:
                    next_pc = imm
            elif op == _SUB:
                if rd:
                    regs[rd] = _wrap(regs[rs1] - regs[rs2])
            elif op == _LI:
                if rd:
                    regs[rd] = _wrap(imm)
            elif op == _MUL:
                if rd:
                    regs[rd] = _wrap(regs[rs1] * regs[rs2])
            elif op == _MULI:
                if rd:
                    regs[rd] = _wrap(regs[rs1] * imm)
            elif op == _AND:
                if rd:
                    regs[rd] = regs[rs1] & regs[rs2]
            elif op == _OR:
                if rd:
                    regs[rd] = regs[rs1] | regs[rs2]
            elif op == _XOR:
                if rd:
                    regs[rd] = regs[rs1] ^ regs[rs2]
            elif op == _ANDI:
                if rd:
                    regs[rd] = regs[rs1] & imm
            elif op == _ORI:
                if rd:
                    regs[rd] = regs[rs1] | imm
            elif op == _XORI:
                if rd:
                    regs[rd] = regs[rs1] ^ imm
            elif op == _SLL:
                if rd:
                    regs[rd] = _wrap(regs[rs1] << (regs[rs2] & 63))
            elif op == _SRL:
                if rd:
                    regs[rd] = (regs[rs1] & _WORD_MASK) >> (regs[rs2] & 63)
            elif op == _SLLI:
                if rd:
                    regs[rd] = _wrap(regs[rs1] << (imm & 63))
            elif op == _SRLI:
                if rd:
                    regs[rd] = (regs[rs1] & _WORD_MASK) >> (imm & 63)
            elif op == _SLT:
                if rd:
                    regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
            elif op == _SLTI:
                if rd:
                    regs[rd] = 1 if regs[rs1] < imm else 0
            elif op == _SEQ:
                if rd:
                    regs[rd] = 1 if regs[rs1] == regs[rs2] else 0
            elif op == _DIV or op == _MOD:
                b = regs[rs2]
                if b == 0:
                    raise MachineError(f"division by zero at pc={pc}")
                a = regs[rs1]
                q = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    q = -q
                if op == _DIV:
                    if rd:
                        regs[rd] = _wrap(q)
                else:
                    if rd:
                        regs[rd] = _wrap(a - q * b)
            elif op == _J:
                rec_pc.append(pc)
                next_pc = imm
            elif op == _JAL:
                regs[1] = pc + 1
                rec_pc.append(pc)
                next_pc = imm
            elif op == _JR or op == _RET:
                dest = regs[rs1]
                rec_pc.append(pc)
                rec_target.append(dest)
                next_pc = dest
            elif op == _JALR:
                dest = regs[rs1]
                regs[1] = pc + 1
                rec_pc.append(pc)
                rec_target.append(dest)
                next_pc = dest
            elif op == _NOP:
                pass
            elif op == _HALT:
                rec_pc.append(pc)
                halted = True
                break
            else:
                raise MachineError(f"unknown opcode {op} at pc={pc}")

            pc = next_pc
            if one_block and op in _TRANSFER_OPS:
                break
        return pc, halted


def run_program_fast(program: Program,
                     max_instructions: int = 10_000_000) -> Trace:
    """Convenience wrapper: execute ``program`` with the fast tracer."""
    result = FastMachine(program).run(max_instructions=max_instructions)
    return result.trace
