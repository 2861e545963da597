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
the same signed-64-bit wrap (the plain result, wrapped only when a
range guard sees it leave int64), the same C-style DIV/MOD truncation,
the same list data memory holding the interpreter's exact values, and
the same fault messages at the same PCs.  Each control record appends
only what run time decides: its PC, a conditional's direction, an
indirect transfer's target; :meth:`Machine.run`'s trace assembly fills
in the fields the code fixes.  A walk stops only at a control exit (a
conditional branch, an unguarded indirect transfer or HALT), a
revisited PC or the instruction cap.

A superblock returns the next PC to execute; after recording a HALT it
sets the shared ``hlt`` cell (a returned ``-1`` alone is a *fault* — an
indirect jump can compute any integer, and the dispatch loop must raise
``PC out of range`` for it exactly like the interpreter).  Each
superblock consumes at most :data:`SUPERBLOCK_CAP` instructions per
call, which bounds how far past the soft budget limit the dispatch loop
can run before handing over to the reference interpreter's loop
(:meth:`Machine.step`).
"""

from __future__ import annotations

from typing import Callable, List

from .machine import MachineError, _wrap
from .tables import CompiledProgram
from ..isa.opcodes import Op

#: Most instructions one superblock call may consume.
SUPERBLOCK_CAP = 512

#: Dispatches of an entry PC that step its basic block on the reference
#: interpreter's loop before its superblock is compiled: most entry PCs
#: are reached only a few times, and compiling them costs more than it
#: saves.
SUPERBLOCK_WARMUP = 7

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

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

    def raise_(self, message: str, indent: int = 2) -> None:
        """Spill (fault state is observable post-mortem) and raise."""
        self.lines.extend(self.spill_lines(indent))
        self.emit(f"raise MachineError({message})", indent)

    def wrap_into(self, name: str, expr: str, indent: int = 2) -> None:
        """``expr`` into ``name``, wrapped to signed 64-bit if it left."""
        self.emit(f"{name} = {expr}", indent)
        self.emit(f"if not MIN64 <= {name} <= MAX64: {name} = _wrap({name})",
                  indent)


def compile_superblock(cp: CompiledProgram, start: int,
                       namespace: dict) -> Callable[[], int]:
    """Compile the superblock starting at ``start`` into a function.

    ``namespace`` provides the run-time objects the generated code
    closes over: ``R`` (register list), ``mem`` (data memory list),
    ``ap``/``at``/``ag`` (appends to the record PC, conditional
    direction and indirect target lists), ``ctr`` (the shared one-cell
    instruction counter) and ``hlt`` (the one-cell halt flag set after
    a HALT records).
    """
    code = cp.code
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
        op, rd, rs1, rs2, imm = code[pc]
        e.count += 1

        if op == op_addi:
            if rd:
                a = e.read(rs1)
                # Even ``imm == 0`` wraps: the source may hold a wide
                # SRL-by-0 result.
                e.wrap_into(e.begin_write(rd), f"{a} + {imm}")
        elif op in (op_ld, op_st):
            addr = e.read(rs1)
            if imm:
                e.emit(f"_a = {addr} + {imm}")
                addr = "_a"
            what = "load" if op == op_ld else "store"
            e.emit(f"if not 0 <= {addr} < {msize}:")
            e.raise_(f'f"{what} out of range at pc={pc}: {{{addr}}}"',
                     indent=3)
            if op == op_st:
                e.emit(f"mem[{addr}] = {e.read(rs2)}")
            elif rd:
                e.emit(f"{e.begin_write(rd)} = mem[{addr}]")
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
            e.emit(f"ap({pc}); at(_t)")
            e.lines.extend(e.spill_lines(2))
            e.emit(f"ctr[0] += {e.count}")
            e.emit(f"return {imm} if _t else {pc + 1}")
            break
        elif op == op_li:
            if rd:
                e.emit(f"{e.begin_write(rd)} = {_wrap(imm)}")
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
            # The operand's low 64 bits as an unsigned value, shifted:
            # by 0 that leaves a negative operand wide, as in the
            # interpreter.
            if rd:
                a = e.read(rs1)
                b = e.read(rs2)
                e.emit(f"{e.begin_write(rd)} = "
                       f"({a} % {1 << 64}) >> ({b} & 63)")
        elif op == op_slli:
            if rd:
                a = e.read(rs1)
                e.wrap_into(e.begin_write(rd), f"{a} << {imm & 63}")
        elif op == op_srli:
            if rd:
                a = e.read(rs1)
                shift = imm & 63
                e.emit(f"{e.begin_write(rd)} = "
                       + (f"({a} >> {shift}) & {(1 << (64 - shift)) - 1}"
                          if shift else f"{a} % {1 << 64}"))
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
            e.emit(f"ap({pc})")
            pc = continue_at(imm)
            if pc < 0:
                break
            continue
        elif op == op_jal:
            e.emit(f"ap({pc})")
            e.emit(f"{e.begin_write(1)} = {pc + 1}")
            expect_stack.append(pc + 1)
            pc = continue_at(imm)
            if pc < 0:
                break
            continue
        elif op in (op_jr, op_ret):
            e.emit(f"_t = {e.read(rs1)}")
            e.emit(f"ap({pc}); ag(_t)")
            if op == op_ret and expect_stack:
                expected = expect_stack.pop()
                e.emit(f"if _t != {expected}:")
                e.lines.extend(e.spill_lines(3))
                e.emit(f"ctr[0] += {e.count}", indent=3)
                e.emit("return _t", indent=3)
                pc = continue_at(expected)
                if pc < 0:
                    break
                continue
            e.exit("_t")
            break
        elif op == op_jalr:
            e.emit(f"_t = {e.read(rs1)}")
            e.emit(f"ap({pc}); ag(_t)")
            e.emit(f"{e.begin_write(1)} = {pc + 1}")
            e.exit("_t")
            break
        elif op == op_nop:
            pass
        elif op == op_halt:
            e.emit(f"ap({pc})")
            e.emit("hlt[0] = 1")
            e.exit("-1")
            break
        else:
            e.raise_(f'"unknown opcode {op} at pc={pc}"')
            break

        pc = continue_at(pc + 1)
        if pc < 0:
            break

    body = "\n".join(e.lines)
    src = (
        "def _make(R, mem, ap, at, ag, ctr, hlt, MIN64, MAX64):\n"
        "    def _sb():\n"
        f"{body}\n"
        "    return _sb\n"
    )
    glb = {"MachineError": MachineError, "abs": abs, "_wrap": _wrap}
    exec(compile(src, f"<superblock pc={start}>", "exec"), glb)
    return glb["_make"](namespace["R"], namespace["mem"],
                        namespace["ap"], namespace["at"], namespace["ag"],
                        namespace["ctr"], namespace["hlt"],
                        _I64_MIN, _I64_MAX)
