"""FastMachine: the compiled trace-capture driver.

Drop-in replacement for :class:`repro.cpu.machine.Machine` behind the
``REPRO_TRACER=fast`` knob.  Execution runs through two tiers sharing
one architectural state (register list, numpy data memory, instruction
counter):

1. **Generated superblocks** (:mod:`repro.cpu.codegen`) — the whole hot
   path: straight-line runs, calls and loop bodies.  Compiled lazily
   per entry PC, so indirect jumps to arbitrary addresses just
   materialise new superblocks.
2. **A scalar tail** — a per-instruction loop identical to
   :meth:`Machine.run`, used for the final stretch before the
   instruction budget so truncation lands on exactly the same
   instruction as the interpreter.

The dispatch invariant: superblocks are only entered while the executed
count is below ``soft = max_instructions - SUPERBLOCK_CAP``, and one
superblock call consumes at most ``SUPERBLOCK_CAP`` instructions, so
the tail always takes over strictly before the budget and replicates
the interpreter's final records and synthetic-HALT truncation bit for
bit.

Records accumulate as Python lists; ``run`` converts them into one
:class:`~repro.trace.record.Trace`, while ``run_streaming`` hands
bounded-size array segments to a sink callback so a ``10^8``-instruction
capture never materialises the full trace in memory.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .codegen import SUPERBLOCK_CAP, compile_superblock
from .machine import MachineError, RunResult
from .tables import CompiledProgram, compile_program
from ..isa.kinds import InstrKind
from ..isa.opcodes import Op
from ..isa.program import Program
from ..trace.record import Trace

_WORD_MASK = (1 << 64) - 1
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_K_COND = int(InstrKind.COND)
_K_JUMP = int(InstrKind.JUMP)
_K_CALL = int(InstrKind.CALL)
_K_RETURN = int(InstrKind.RETURN)
_K_INDIRECT = int(InstrKind.INDIRECT)
_K_HALT = int(InstrKind.HALT)


def _wrap(value: int) -> int:
    value &= _WORD_MASK
    return value - (1 << 64) if value & (1 << 63) else value


#: Signature of a streaming record sink: four equal-length arrays of
#: dtype int64 / uint8 / bool / int64 in execution order.
RecordSink = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                      None]


class FastMachine:
    """Executes one program with the compiled fast tracer.

    Mirrors the :class:`~repro.cpu.machine.Machine` interface —
    ``regs``/``mem`` inspection and ``run`` — with ``mem`` held as an
    ``int64`` numpy array instead of a list (values compare equal).
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.cp: CompiledProgram = compile_program(program)
        self.regs: List[int] = [0] * 32
        self.mem = np.zeros(self.cp.data_size, dtype=np.int64)
        self.ctr: List[int] = [0]
        self._hlt: List[int] = [0]
        #: Memory words whose interpreter value exceeds int64 (unwrapped
        #: SRL-by-0 results); ``mem`` keeps a wrapped mirror.  Empty for
        #: nearly every program.
        self.hi_mem: Dict[int, int] = {}
        self._rec_pc: List[int] = []
        self._rec_kind: List[int] = []
        self._rec_taken: List[bool] = []
        self._rec_target: List[int] = []
        self._fns: Dict[int, Callable[[], int]] = {}
        self._ns = {
            "R": self.regs,
            "mem": self.mem,
            "ap": self._rec_pc.append,
            "ak": self._rec_kind.append,
            "at": self._rec_taken.append,
            "ag": self._rec_target.append,
            "ctr": self.ctr,
            "hlt": self._hlt,
            "hi": self.hi_mem,
        }

    # -- public API -----------------------------------------------------

    def run(self, max_instructions: int = 10_000_000) -> RunResult:
        """Execute from the entry; same contract as :meth:`Machine.run`."""
        halted, truncated, executed = self._execute(max_instructions)
        pc, kind, taken, target = self._take_records()
        trace = Trace(
            entry_pc=self.program.entry,
            n_instructions=executed,
            pc=pc, kind=kind, taken=taken, target=target,
            truncated=truncated,
            name=self.program.name,
        )
        return RunResult(trace=trace, instructions=executed, halted=halted)

    def run_streaming(self, sink: RecordSink,
                      max_instructions: int = 10_000_000,
                      flush_records: int = 1 << 20
                      ) -> Tuple[int, bool, bool]:
        """Execute, handing record segments of bounded size to ``sink``.

        Returns ``(n_instructions, halted, truncated)``.  Each segment
        holds at most ``flush_records + SUPERBLOCK_CAP`` records, so
        peak memory is independent of the trace length.
        """
        halted, truncated, executed = self._execute(
            max_instructions, sink, max(1, flush_records))
        if self._rec_pc:
            sink(*self._take_records())
        return executed, halted, truncated

    # -- record plumbing ------------------------------------------------

    def _take_records(self) -> Tuple[np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]:
        """Move the buffered record lists out as four numpy arrays."""
        records = (np.asarray(self._rec_pc, dtype=np.int64),
                   np.asarray(self._rec_kind, dtype=np.uint8),
                   np.asarray(self._rec_taken, dtype=bool),
                   np.asarray(self._rec_target, dtype=np.int64))
        # Clear in place: the generated superblocks hold bound appends.
        del self._rec_pc[:]
        del self._rec_kind[:]
        del self._rec_taken[:]
        del self._rec_target[:]
        return records

    # -- execution ------------------------------------------------------

    def _execute(self, max_instructions: int,
                 sink: Optional[RecordSink] = None,
                 flush_records: int = 0) -> Tuple[bool, bool, int]:
        ctr = self.ctr
        hlt = self._hlt
        fns = self._fns
        rec = self._rec_pc
        soft = max_instructions - SUPERBLOCK_CAP
        pc = self.program.entry
        halted = False

        while ctr[0] < soft:
            fn = fns.get(pc)
            if fn is None:
                fn = self._compile_at(pc)
            pc = fn()
            if hlt[0]:
                halted = True
                break
            if sink is not None and len(rec) >= flush_records:
                sink(*self._take_records())

        if not halted:
            pc, halted = self._scalar_tail(pc, max_instructions)

        truncated = False
        if not halted:
            # Budget exhausted: synthesise a HALT record at the next PC
            # (counted as one instruction), exactly like the interpreter.
            self._rec_pc.append(pc)
            self._rec_kind.append(_K_HALT)
            self._rec_taken.append(False)
            self._rec_target.append(pc + 1)
            ctr[0] += 1
            truncated = True
        return halted, truncated, ctr[0]

    def _compile_at(self, pc: int) -> Callable[[], int]:
        if not 0 <= pc < self.cp.n_code:
            raise MachineError(f"PC out of range: {pc}")
        fn = compile_superblock(self.cp, pc, self._ns)
        self._fns[pc] = fn
        return fn

    def _scalar_tail(self, pc: int,
                     max_instructions: int) -> Tuple[int, bool]:
        """Per-instruction execution of the final pre-budget stretch.

        A transliteration of :meth:`Machine.run`'s loop operating on
        this machine's state, so the last ``<= SUPERBLOCK_CAP``
        instructions — and any fault inside them — are bit-identical.
        """
        cp = self.cp
        ops = cp.ops
        rds = cp.rd
        rs1s = cp.rs1
        rs2s = cp.rs2
        imms = cp.imm
        regs = self.regs
        mem = self.mem
        hi = self.hi_mem
        n_code = cp.n_code
        mem_size = cp.data_size
        ctr = self.ctr
        rec_pc = self._rec_pc
        rec_kind = self._rec_kind
        rec_taken = self._rec_taken
        rec_target = self._rec_target

        op_add = int(Op.ADD); op_sub = int(Op.SUB); op_mul = int(Op.MUL)
        op_div = int(Op.DIV); op_mod = int(Op.MOD); op_and = int(Op.AND)
        op_or = int(Op.OR); op_xor = int(Op.XOR); op_sll = int(Op.SLL)
        op_srl = int(Op.SRL); op_slt = int(Op.SLT); op_seq = int(Op.SEQ)
        op_addi = int(Op.ADDI); op_andi = int(Op.ANDI); op_ori = int(Op.ORI)
        op_xori = int(Op.XORI); op_slli = int(Op.SLLI)
        op_srli = int(Op.SRLI); op_slti = int(Op.SLTI)
        op_muli = int(Op.MULI); op_li = int(Op.LI)
        op_ld = int(Op.LD); op_st = int(Op.ST)
        op_beq = int(Op.BEQ); op_bne = int(Op.BNE); op_blt = int(Op.BLT)
        op_bge = int(Op.BGE); op_ble = int(Op.BLE); op_bgt = int(Op.BGT)
        op_j = int(Op.J); op_jal = int(Op.JAL); op_jr = int(Op.JR)
        op_jalr = int(Op.JALR); op_ret = int(Op.RET)
        op_nop = int(Op.NOP); op_halt = int(Op.HALT)

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

            if op == op_addi:
                if rd:
                    regs[rd] = _wrap(regs[rs1] + imm)
            elif op == op_ld:
                addr = regs[rs1] + imm
                if not 0 <= addr < mem_size:
                    raise MachineError(
                        f"load out of range at pc={pc}: {addr}")
                if rd:
                    if hi:
                        value = hi.get(addr)
                        regs[rd] = int(mem[addr]) if value is None else value
                    else:
                        regs[rd] = int(mem[addr])
            elif op == op_st:
                addr = regs[rs1] + imm
                if not 0 <= addr < mem_size:
                    raise MachineError(
                        f"store out of range at pc={pc}: {addr}")
                value = regs[rs2]
                if _I64_MIN <= value <= _I64_MAX:
                    mem[addr] = value
                    if hi:
                        hi.pop(addr, None)
                else:
                    mem[addr] = _wrap(value)
                    hi[addr] = value
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
                rec_kind.append(
                    _K_RETURN if op == op_ret else _K_INDIRECT)
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
        return pc, halted


def run_program_fast(program: Program,
                     max_instructions: int = 10_000_000) -> Trace:
    """Convenience wrapper: execute ``program`` with the fast tracer."""
    result = FastMachine(program).run(max_instructions=max_instructions)
    return result.trace
