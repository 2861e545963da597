"""Generated-code tier of the fast tracer: superblocks as Python functions.

For each entry PC reached at run time, :func:`compile_superblock` walks
the static code from that address and emits one specialised Python
function covering the whole straight-line region — following direct
jumps, inlining ``JAL`` targets, and returning through ``RET`` under a
guard that checks the link register against the statically expected
return address.  Registers live in Python locals for the duration of a
superblock and spill back to the shared register file at every exit, so
the per-instruction cost is one or two local-variable operations instead
of a dispatch loop iteration.

Semantics are kept bit-identical to :class:`repro.cpu.machine.Machine`:
the same signed-64-bit wrap (inlined branchlessly), the same C-style
DIV/MOD truncation, the same fault messages at the same PCs, and the
same control-record stream.  A walk stops only at a control exit (a
conditional branch, an unguarded indirect transfer or HALT), a
revisited PC or the instruction cap.

A superblock returns the next PC to execute; after recording a HALT it
sets the shared ``hlt`` cell (a returned ``-1`` alone is a *fault* — an
indirect jump can compute any integer, and the dispatch loop must raise
``PC out of range`` for it exactly like the interpreter).  Each
superblock consumes at most :data:`SUPERBLOCK_CAP` instructions per
call, which bounds how far past the soft budget limit the dispatch loop
can run before handing over to the scalar tail.
"""

from __future__ import annotations

from typing import Callable, List

from .machine import MachineError
from .tables import CompiledProgram
from ..isa.kinds import InstrKind
from ..isa.opcodes import Op

#: Most instructions one superblock call may consume.
SUPERBLOCK_CAP = 512

_M = (1 << 64) - 1
_S = 1 << 63

_K_COND = int(InstrKind.COND)
_K_JUMP = int(InstrKind.JUMP)
_K_CALL = int(InstrKind.CALL)
_K_RETURN = int(InstrKind.RETURN)
_K_INDIRECT = int(InstrKind.INDIRECT)
_K_HALT = int(InstrKind.HALT)

_COND_PY = {
    int(Op.BEQ): "==", int(Op.BNE): "!=", int(Op.BLT): "<",
    int(Op.BGE): ">=", int(Op.BLE): "<=", int(Op.BGT): ">",
}


class _Emitter:
    """Accumulates the body of one superblock function."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.live: set = set()     # registers bound to locals
        self.written: set = set()  # locals dirty vs the register file
        self.count = 0             # instructions consumed so far
        self.n_exits = 0

    def emit(self, line: str, indent: int = 2) -> None:
        self.lines.append(" " * (4 * indent) + line)

    def read(self, r: int, indent: int = 2) -> str:
        if r == 0:
            return "0"
        name = f"r{r}"
        if r not in self.live:
            self.emit(f"{name} = R[{r}]", indent)
            self.live.add(r)
        return name

    def begin_write(self, r: int) -> str:
        """Local name for writing ``r`` (``r0`` writes are discarded)."""
        self.live.add(r)
        self.written.add(r)
        return f"r{r}"

    def spill_lines(self, indent: int) -> List[str]:
        pad = " " * (4 * indent)
        return [f"{pad}R[{n}] = r{n}" for n in sorted(self.written - {0})]

    def exit(self, result: str, indent: int = 2) -> None:
        """Spill, charge the instruction count, return ``result``."""
        self.lines.extend(self.spill_lines(indent))
        if self.count:
            self.emit(f"ctr[0] += {self.count}", indent)
        self.emit(f"return {result}", indent)
        self.n_exits += 1

    def raise_(self, message: str, indent: int = 2) -> None:
        """Spill (fault state is observable post-mortem) and raise."""
        self.lines.extend(self.spill_lines(indent))
        self.emit(f"raise MachineError({message})", indent)

    def wrap_into(self, name: str, expr: str, indent: int = 2) -> None:
        """Branchless signed-64-bit wrap of ``expr`` into ``name``."""
        self.emit(f"_v = ({expr}) & {_M}", indent)
        self.emit(f"{name} = _v - ((_v & {_S}) << 1)", indent)


def compile_superblock(cp: CompiledProgram, start: int,
                       namespace: dict) -> Callable[[], int]:
    """Compile the superblock starting at ``start`` into a function.

    ``namespace`` provides the run-time objects the generated code
    closes over: ``R`` (register list), ``mem`` (numpy data memory),
    ``ap``/``ak``/``at``/``ag`` (record-list appends), ``ctr`` (the
    shared one-cell instruction counter), ``hlt`` (the one-cell halt
    flag set after a HALT records) and ``hi`` (the dict of memory words
    whose interpreter value falls outside int64 — SRL by a zero shift
    count leaves a negative operand unwrapped, and the reference
    interpreter's list memory keeps that huge value; ``mem`` then holds
    the wrapped mirror and ``hi`` the exact value loads must observe).
    """
    ops = cp.ops
    rds = cp.rd
    rs1s = cp.rs1
    rs2s = cp.rs2
    imms = cp.imm
    n_code = cp.n_code
    msize = cp.data_size

    e = _Emitter()
    seen = {start}
    expect_stack: List[int] = []
    pc = start

    op_add = int(Op.ADD); op_sub = int(Op.SUB); op_mul = int(Op.MUL)
    op_div = int(Op.DIV); op_mod = int(Op.MOD); op_and = int(Op.AND)
    op_or = int(Op.OR); op_xor = int(Op.XOR); op_sll = int(Op.SLL)
    op_srl = int(Op.SRL); op_slt = int(Op.SLT); op_seq = int(Op.SEQ)
    op_addi = int(Op.ADDI); op_andi = int(Op.ANDI); op_ori = int(Op.ORI)
    op_xori = int(Op.XORI); op_slli = int(Op.SLLI); op_srli = int(Op.SRLI)
    op_slti = int(Op.SLTI); op_muli = int(Op.MULI); op_li = int(Op.LI)
    op_ld = int(Op.LD); op_st = int(Op.ST)
    op_j = int(Op.J); op_jal = int(Op.JAL); op_jr = int(Op.JR)
    op_jalr = int(Op.JALR); op_ret = int(Op.RET)
    op_nop = int(Op.NOP); op_halt = int(Op.HALT)

    def continue_at(target: int) -> int:
        """Decide whether the walk may extend to ``target``.

        Returns the target when inlining continues; emits an exit and
        returns ``-1`` otherwise.
        """
        if target in seen or e.count >= SUPERBLOCK_CAP:
            e.exit(str(target))
            return -1
        if not 0 <= target < n_code:
            e.raise_(f'"PC out of range: {target}"')
            return -1
        seen.add(target)
        return target

    while True:
        if not 0 <= pc < n_code:
            e.raise_(f'"PC out of range: {pc}"')
            break
        op = ops[pc]
        rd = rds[pc]
        rs1 = rs1s[pc]
        rs2 = rs2s[pc]
        imm = imms[pc]
        e.count += 1

        if op == op_addi:
            if rd:
                a = e.read(rs1)
                name = e.begin_write(rd)
                if imm == 0:
                    e.emit(f"{name} = {a}")
                else:
                    e.wrap_into(name, f"{a} + {imm}")
        elif op == op_ld:
            a = e.read(rs1)
            e.emit(f"_a = {a} + {imm}" if imm else f"_a = {a}")
            e.emit(f"if not 0 <= _a < {msize}:")
            e.raise_(f'f"load out of range at pc={pc}: {{_a}}"', indent=3)
            if rd:
                # ``hi`` holds values outside int64 (unwrapped SRL-by-0
                # results the interpreter keeps); empty for nearly every
                # program, so the common path is one falsy check.
                name = e.begin_write(rd)
                e.emit(f"{name} = hi.get(_a) if hi else None")
                e.emit(f"if {name} is None:")
                e.emit(f"{name} = int(mem[_a])", indent=3)
        elif op == op_st:
            a = e.read(rs1)
            v = e.read(rs2)
            e.emit(f"_a = {a} + {imm}" if imm else f"_a = {a}")
            e.emit(f"if not 0 <= _a < {msize}:")
            e.raise_(f'f"store out of range at pc={pc}: {{_a}}"', indent=3)
            e.emit(f"if {-(1 << 63)} <= {v} <= {(1 << 63) - 1}:")
            e.emit(f"mem[_a] = {v}", indent=3)
            e.emit("if hi: hi.pop(_a, None)", indent=3)
            e.emit("else:")
            e.emit(f"_w = {v} & {_M}", indent=3)
            e.emit(f"mem[_a] = _w - ((_w & {_S}) << 1)", indent=3)
            e.emit(f"hi[_a] = {v}", indent=3)
        elif op in (op_add, op_sub, op_mul):
            if rd:
                a = e.read(rs1)
                b = e.read(rs2)
                sym = {op_add: "+", op_sub: "-", op_mul: "*"}[op]
                e.wrap_into(e.begin_write(rd), f"{a} {sym} {b}")
        elif op in _COND_PY:
            a = e.read(rs1)
            b = e.read(rs2)
            e.emit(f"_t = {a} {_COND_PY[op]} {b}")
            e.emit(f"ap({pc}); ak({_K_COND}); at(_t); ag({imm})")
            e.lines.extend(e.spill_lines(2))
            e.emit(f"ctr[0] += {e.count}")
            e.emit(f"return {imm} if _t else {pc + 1}")
            e.n_exits += 1
            break
        elif op == op_li:
            if rd:
                value = imm & _M
                if value & _S:
                    value -= 1 << 64
                e.emit(f"{e.begin_write(rd)} = {value}")
        elif op == op_muli:
            if rd:
                a = e.read(rs1)
                e.wrap_into(e.begin_write(rd), f"{a} * {imm}")
        elif op in (op_and, op_or, op_xor):
            if rd:
                a = e.read(rs1)
                b = e.read(rs2)
                sym = {op_and: "&", op_or: "|", op_xor: "^"}[op]
                e.emit(f"{e.begin_write(rd)} = {a} {sym} {b}")
        elif op in (op_andi, op_ori, op_xori):
            if rd:
                a = e.read(rs1)
                sym = {op_andi: "&", op_ori: "|", op_xori: "^"}[op]
                e.emit(f"{e.begin_write(rd)} = {a} {sym} {imm}")
        elif op == op_sll:
            if rd:
                a = e.read(rs1)
                b = e.read(rs2)
                e.wrap_into(e.begin_write(rd), f"{a} << ({b} & 63)")
        elif op == op_srl:
            if rd:
                a = e.read(rs1)
                b = e.read(rs2)
                e.emit(f"{e.begin_write(rd)} = "
                       f"({a} & {_M}) >> ({b} & 63)")
        elif op == op_slli:
            if rd:
                a = e.read(rs1)
                e.wrap_into(e.begin_write(rd), f"{a} << {imm & 63}")
        elif op == op_srli:
            if rd:
                a = e.read(rs1)
                e.emit(f"{e.begin_write(rd)} = ({a} & {_M}) >> {imm & 63}")
        elif op == op_slt:
            if rd:
                a = e.read(rs1)
                b = e.read(rs2)
                e.emit(f"{e.begin_write(rd)} = 1 if {a} < {b} else 0")
        elif op == op_slti:
            if rd:
                a = e.read(rs1)
                e.emit(f"{e.begin_write(rd)} = 1 if {a} < {imm} else 0")
        elif op == op_seq:
            if rd:
                a = e.read(rs1)
                b = e.read(rs2)
                e.emit(f"{e.begin_write(rd)} = 1 if {a} == {b} else 0")
        elif op in (op_div, op_mod):
            a = e.read(rs1)
            b = e.read(rs2)
            e.emit(f"if {b} == 0:")
            e.raise_(f'"division by zero at pc={pc}"', indent=3)
            e.emit(f"_q = abs({a}) // abs({b})")
            e.emit(f"if ({a} < 0) != ({b} < 0):")
            e.emit("_q = -_q", indent=3)
            if rd:
                name = e.begin_write(rd)
                if op == op_div:
                    e.wrap_into(name, "_q")
                else:
                    e.wrap_into(name, f"{a} - _q * {b}")
        elif op == op_j:
            e.emit(f"ap({pc}); ak({_K_JUMP}); at(True); ag({imm})")
            pc = continue_at(imm)
            if pc < 0:
                break
            continue
        elif op == op_jal:
            e.emit(f"ap({pc}); ak({_K_CALL}); at(True); ag({imm})")
            e.emit(f"{e.begin_write(1)} = {pc + 1}")
            expect_stack.append(pc + 1)
            pc = continue_at(imm)
            if pc < 0:
                break
            continue
        elif op in (op_jr, op_ret):
            a = e.read(rs1)
            kind = _K_RETURN if op == op_ret else _K_INDIRECT
            e.emit(f"_t = {a}")
            e.emit(f"ap({pc}); ak({kind}); at(True); ag(_t)")
            if op == op_ret and expect_stack:
                expected = expect_stack.pop()
                e.emit(f"if _t != {expected}:")
                e.lines.extend(e.spill_lines(3))
                e.emit(f"ctr[0] += {e.count}", indent=3)
                e.emit("return _t", indent=3)
                e.n_exits += 1
                pc = continue_at(expected)
                if pc < 0:
                    break
                continue
            e.exit("_t")
            break
        elif op == op_jalr:
            a = e.read(rs1)
            e.emit(f"_t = {a}")
            e.emit(f"ap({pc}); ak({_K_CALL}); at(True); ag(_t)")
            e.emit(f"{e.begin_write(1)} = {pc + 1}")
            e.exit("_t")
            break
        elif op == op_nop:
            pass
        elif op == op_halt:
            e.emit(f"ap({pc}); ak({_K_HALT}); at(False); ag({pc + 1})")
            e.emit("hlt[0] = 1")
            e.exit("-1")
            break
        else:
            e.raise_(f'"unknown opcode {op} at pc={pc}"')
            break

        pc = continue_at(pc + 1)
        if pc < 0:
            break

    body = "\n".join(e.lines) if e.lines else "        pass"
    src = (
        "def _make(R, mem, ap, ak, at, ag, ctr, hlt, hi):\n"
        "    def _sb():\n"
        f"{body}\n"
        "    return _sb\n"
    )
    glb = {"MachineError": MachineError, "abs": abs}
    exec(compile(src, f"<superblock pc={start}>", "exec"), glb)
    return glb["_make"](namespace["R"], namespace["mem"],
                        namespace["ap"], namespace["ak"],
                        namespace["at"], namespace["ag"],
                        namespace["ctr"], namespace["hlt"],
                        namespace["hi"])
