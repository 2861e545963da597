"""Capture parity: the fast tracer vs the reference interpreter.

The scalar :class:`~repro.cpu.machine.Machine` is ground truth; the
:class:`~repro.cpu.fast.FastMachine` (generated superblocks, with
warm-up blocks and the final stretch run on the reference interpreter's
loop) must reproduce it bit-for-bit — every trace record, the run
counters, and the full architectural end state, registers and the data
memory list alike.  The suite sweeps every registered workload at a
10^5-instruction budget, runs both tracers twice on one instance,
sweeps the budgets around the superblock cap where the dispatch loop
hands off to the interpreter loop, pins the
arithmetic corners the generated code is most likely to get wrong
(64-bit wrap, C-style division truncation, shift-amount masking,
logical-shift of negatives), pins each fault and the budget ending on
a conditional or on an out-of-range PC, and runs random short programs
through both tracers under hypothesis.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import FastMachine, Machine, MachineError, fast
from repro.cpu.codegen import SUPERBLOCK_CAP
from repro.isa import Instruction, InstrKind, Op, Program, ProgramBuilder
from repro.workloads.registry import REGISTRY, workload_names

PARITY_BUDGET = 100_000


def assert_capture_parity(program, budget):
    """Run both tracers and compare everything observable."""
    scalar = Machine(program)
    fast = FastMachine(program)
    s_res = scalar.run(max_instructions=budget)
    f_res = fast.run(max_instructions=budget)

    assert f_res.instructions == s_res.instructions
    assert f_res.halted == s_res.halted
    s_tr, f_tr = s_res.trace, f_res.trace
    assert (f_tr.entry_pc, f_tr.n_instructions, f_tr.truncated) == \
        (s_tr.entry_pc, s_tr.n_instructions, s_tr.truncated)
    for field in ("pc", "kind", "taken", "target"):
        a = np.asarray(getattr(s_tr, field))
        b = np.asarray(getattr(f_tr, field))
        assert b.dtype == a.dtype, field
        if not np.array_equal(a, b):
            first = int(np.flatnonzero(a != b)[0])
            pytest.fail(f"trace.{field} diverges at record {first}: "
                        f"scalar {a[first]} vs fast {b[first]}")

    assert fast.regs == scalar.regs
    assert fast.mem == scalar.mem
    return s_res, f_res


class TestWorkloadParity:
    """Every registered analog, both suites plus extras, at 10^5."""

    @pytest.mark.parametrize("name", workload_names())
    def test_capture_parity(self, name):
        program = REGISTRY.program(name)
        s_res, _f_res = assert_capture_parity(program, PARITY_BUDGET)
        assert s_res.instructions >= PARITY_BUDGET or s_res.halted


class TestSecondRun:
    """A second ``run`` on one instance starts from the entry again,
    with the registers and memory the first run left."""

    @pytest.mark.parametrize("budget", [5_000, 100_000])
    def test_same_instance_twice(self, budget):
        program = REGISTRY.program("compress")
        scalar, fast = Machine(program), FastMachine(program)
        for _ in range(2):
            assert _outcome(fast, budget) == _outcome(scalar, budget)


def _loop_nest():
    """Counted loops with memory traffic, then a while loop whose
    500-instruction body makes superblocks long enough that one entered
    just short of the soft limit would overrun the budget."""
    b = ProgramBuilder(name="loopnest")
    with b.function("main"):
        with b.for_range("r3", 0, 6):
            with b.for_range("r5", 0, 4):
                b.asm.addi("r4", "r4", 3)
                b.asm.st("r4", "r5", 0)
                b.asm.ld("r6", "r5", 0)
                b.asm.add("r7", "r7", "r6")
            b.asm.li("r8", 0)
            b.asm.li("r10", 2)
            with b.while_("lt", "r8", "r10"):
                b.asm.addi("r8", "r8", 1)
                for i in range(250):
                    b.asm.addi("r11", "r11", i)
                    b.asm.xor("r9", "r9", "r11")
    return b.build()


#: Budgets around the soft limit ``budget - SUPERBLOCK_CAP`` below which
#: superblocks run and past which the interpreter loop takes over.
BOUNDARY_BUDGETS = (1, SUPERBLOCK_CAP - 1, SUPERBLOCK_CAP,
                    SUPERBLOCK_CAP + 1, 2 * SUPERBLOCK_CAP + 7)


class TestBudgetBoundary:
    """Truncation lands on the same record wherever the handoff falls."""

    @pytest.mark.parametrize("budget", BOUNDARY_BUDGETS)
    def test_loop_nest(self, budget):
        s_res, _ = assert_capture_parity(_loop_nest(), budget)
        assert s_res.trace.truncated

    @pytest.mark.parametrize("budget", BOUNDARY_BUDGETS)
    def test_call_heavy_analog(self, budget):
        s_res, _ = assert_capture_parity(REGISTRY.program("vortex"),
                                         budget)
        assert s_res.trace.truncated


def _run_pair(build):
    """Build, run both tracers to HALT, return them after parity."""
    program = build()
    assert_capture_parity(program, 100_000)
    machine = FastMachine(program)
    result = machine.run(max_instructions=100_000)
    assert result.halted
    return machine


class TestArithmeticCorners:
    def test_int64_wraparound(self):
        def build():
            b = ProgramBuilder(name="wrap")
            with b.function("main"):
                b.asm.li("r3", 1)
                b.asm.slli("r3", "r3", 62)
                with b.for_range("r5", 0, 8):
                    b.asm.add("r3", "r3", "r3")   # overflow wraps
                    b.asm.addi("r3", "r3", 3)
                b.asm.li("r4", 0x7FFF)
                b.asm.mul("r4", "r4", "r3")       # wrapped multiply
            return b.build()

        machine = _run_pair(build)
        assert machine.regs[3] == machine.regs[3] & ((1 << 64) - 1) \
            - (1 << 64) if machine.regs[3] < 0 else True
        assert -(1 << 63) <= machine.regs[3] < (1 << 63)
        assert -(1 << 63) <= machine.regs[4] < (1 << 63)

    def test_div_mod_truncate_toward_zero(self):
        def build():
            b = ProgramBuilder(name="divmod")
            with b.function("main"):
                b.asm.li("r3", 7)
                b.asm.li("r4", 2)
                b.asm.sub("r5", "r0", "r3")       # -7
                b.asm.sub("r6", "r0", "r4")       # -2
                b.asm.div("r7", "r5", "r4")       # -7 / 2
                b.asm.mod("r8", "r5", "r4")       # -7 % 2
                b.asm.div("r9", "r3", "r6")       # 7 / -2
                b.asm.mod("r10", "r3", "r6")      # 7 % -2
                b.asm.div("r11", "r5", "r6")      # -7 / -2
                b.asm.mod("r12", "r5", "r6")      # -7 % -2
            return b.build()

        machine = _run_pair(build)
        # C semantics: quotient truncates toward zero, remainder keeps
        # the dividend's sign — unlike Python's floor division.
        assert machine.regs[7] == -3 and machine.regs[8] == -1
        assert machine.regs[9] == -3 and machine.regs[10] == 1
        assert machine.regs[11] == 3 and machine.regs[12] == -1

    def test_shift_amounts_mask_to_six_bits(self):
        def build():
            b = ProgramBuilder(name="shifts")
            with b.function("main"):
                b.asm.li("r3", 5)
                b.asm.li("r4", 64)                # masks to 0
                b.asm.sll("r5", "r3", "r4")
                b.asm.srl("r6", "r3", "r4")
                b.asm.li("r4", 65)                # masks to 1
                b.asm.sll("r7", "r3", "r4")
                b.asm.srl("r8", "r3", "r4")
            return b.build()

        machine = _run_pair(build)
        assert machine.regs[5] == 5 and machine.regs[6] == 5
        assert machine.regs[7] == 10 and machine.regs[8] == 2

    def test_srl_of_negative_is_logical(self):
        def build():
            b = ProgramBuilder(name="srlneg")
            with b.function("main"):
                b.asm.li("r3", 1)
                b.asm.sub("r3", "r0", "r3")       # -1
                b.asm.li("r4", 1)
                b.asm.srl("r5", "r3", "r4")       # 2^63 - 1
                b.asm.li("r6", 0)
                b.asm.srl("r7", "r3", "r6")       # srl by 0: 2^64 - 1
                b.asm.li("r8", 100)
                b.asm.st("r7", "r8", 0)           # wide value to memory
                b.asm.ld("r9", "r8", 0)           # and back
            return b.build()

        machine = _run_pair(build)
        assert machine.regs[5] == (1 << 63) - 1
        # srl-by-0 reinterprets the negative as unsigned without
        # re-wrapping — the documented scalar semantics, kept through
        # a store and a load.
        assert machine.regs[7] == (1 << 64) - 1
        assert machine.regs[9] == (1 << 64) - 1
        assert machine.mem[100] == (1 << 64) - 1

    def test_move_of_a_wide_value_wraps(self):
        # ``addi rd, rs, 0`` wraps like any add, so a wide SRL-by-0
        # result copied inside a compiled loop reads back as -1.
        program = _program(
            I(Op.LI, rd=3, imm=-1), I(Op.SRLI, rd=4, rs1=3, imm=0),
            I(Op.LI, rd=10, imm=60), I(Op.ADDI, rd=5, rs1=4, imm=0),
            I(Op.ADDI, rd=9, rs1=9, imm=1),
            I(Op.BLT, rs1=9, rs2=10, imm=3), I(Op.HALT))
        out = assert_outcome_parity(program, HOT_BUDGET)
        assert out[-2][4] == (1 << 64) - 1 and out[-2][5] == -1


def _outcome(machine, budget):
    """Everything observable after one run, a fault's message included.

    A record that a trace array cannot hold (a synthetic HALT past
    int64) fails in numpy, identically for both tracers.
    """
    try:
        result = machine.run(max_instructions=budget)
    except (MachineError, OverflowError) as exc:
        return (type(exc).__name__, str(exc), machine.regs, machine.mem)
    trace = result.trace
    return (result.instructions, result.halted, trace.entry_pc,
            trace.n_instructions, trace.truncated, trace.pc.tolist(),
            trace.kind.tolist(), trace.taken.tolist(),
            trace.target.tolist(), machine.regs, machine.mem)


def assert_outcome_parity(program, budget):
    scalar = _outcome(Machine(program), budget)
    fast = _outcome(FastMachine(program), budget)
    assert fast == scalar
    return scalar


def _program(*instructions, data_size=64):
    return Program(instructions=list(instructions), data_size=data_size,
                   name="pinned")


I = Instruction
#: A budget far past the soft limit, so hot code runs as superblocks.
HOT_BUDGET = 100_000


class TestFaults:
    """Each fault, hit after the loop around it has compiled."""

    @staticmethod
    def _counting_loop(*body):
        """``r2`` counts up from 0 forever; ``body`` runs each pass."""
        return _program(I(Op.ADDI, rd=2, rs1=2, imm=1), *body,
                        I(Op.J, imm=0), data_size=40)

    def test_load_out_of_range(self):
        out = assert_outcome_parity(
            self._counting_loop(I(Op.LD, rd=3, rs1=2)), HOT_BUDGET)
        assert out[:2] == ("MachineError", "load out of range at pc=1: 40")

    def test_store_out_of_range(self):
        out = assert_outcome_parity(
            self._counting_loop(I(Op.ST, rs1=2, rs2=2, imm=10)),
            HOT_BUDGET)
        assert out[:2] == ("MachineError",
                           "store out of range at pc=1: 40")
        assert out[2][2] == 30 and out[3][39] == 29

    def test_division_by_zero(self):
        program = self._counting_loop(
            I(Op.LI, rd=4, imm=30), I(Op.SUB, rd=4, rs1=4, rs2=2),
            I(Op.DIV, rd=5, rs1=2, rs2=4))
        out = assert_outcome_parity(program, HOT_BUDGET)
        assert out[:2] == ("MachineError", "division by zero at pc=3")
        assert out[2][2] == 30

    def test_bad_indirect_pc(self):
        # Jump back to pc 0 through r6 while r2 < 30, then to 1000.
        program = _program(
            I(Op.ADDI, rd=2, rs1=2, imm=1),
            I(Op.SLTI, rd=7, rs1=2, imm=30),
            I(Op.XORI, rd=7, rs1=7, imm=1),
            I(Op.MULI, rd=6, rs1=7, imm=1000),
            I(Op.JR, rs1=6))
        out = assert_outcome_parity(program, HOT_BUDGET)
        assert out[:2] == ("MachineError", "PC out of range: 1000")


class TestBudgetEndsOddly:
    """The synthetic HALT lands where the tables must not be read."""

    #: r3 = 300; loop { r2 += 1; blt r2, r3 } ... (pc 2 is the branch).
    LOOP = (I(Op.LI, rd=3, imm=300), I(Op.ADDI, rd=2, rs1=2, imm=1),
            I(Op.BLT, rs1=2, rs2=3, imm=1))

    @pytest.mark.parametrize("budget", [2, 40, 580, 600])
    def test_on_a_conditional_branch(self, budget):
        program = _program(*self.LOOP, I(Op.HALT))
        out = assert_outcome_parity(program, budget)
        trace_pc, trace_kind = out[5], out[6]
        assert trace_pc[-1] == 2 and trace_kind[-1] == InstrKind.HALT

    @pytest.mark.parametrize("dest", [1000, -7, (1 << 63) - 1])
    def test_on_an_out_of_range_pc_after_jr(self, dest):
        # 1 + 600 loop instructions, then LI and JR: the budget ends
        # right after the jump, before its target is fetched.
        program = _program(*self.LOOP, I(Op.LI, rd=5, imm=dest),
                           I(Op.JR, rs1=5))
        out = assert_outcome_parity(program, 603)
        if dest < (1 << 63) - 1:
            assert out[4] is True and out[5][-2:] == [4, dest]
        else:  # the HALT's fall-through target overflows int64
            assert out[0] == "OverflowError"


#: Operands where 64-bit wrap, sign and width bugs show.
EDGES = (0, 1, -1, 2, (1 << 63) - 1, -(1 << 63), (1 << 63) - 2,
         -(1 << 63) + 1, 1 << 62, -(1 << 62), (1 << 32) + 1, -(1 << 40))
#: Body writes go to r0-r7; reads may also see the loop counter r9, so
#: addresses, divisors and jump targets can drift out of range late,
#: inside compiled code.
DST = st.integers(0, 7)
SRC = st.sampled_from((0, 1, 2, 3, 4, 5, 6, 7, 9))
#: Memory bases: mostly absolute or counter-relative addresses.
BASE = st.sampled_from((0, 0, 9, 9, 2, 3, 4, 5, 6, 7))
VALUE = st.one_of(st.integers(-4, 40), st.sampled_from(EDGES))
DATA_SIZE = 160
RR_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR, Op.XOR,
          Op.SLL, Op.SRL, Op.SLT, Op.SEQ)
RI_OPS = (Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI, Op.MULI)
COND_OPS = (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT)


#: Body opcodes, ALU work repeated to weight the draw, so that most
#: programs run long enough for their loop to compile.
BODY_OPS = RR_OPS * 2 + RI_OPS * 2 + (Op.SLLI, Op.SRLI) * 3 + COND_OPS + (
    Op.LI, Op.LD, Op.ST, Op.J, Op.JAL, Op.JR, Op.JALR, Op.RET, Op.NOP,
    Op.HALT)


@st.composite
def body_instructions(draw, n_code):
    op = draw(st.sampled_from(BODY_OPS))
    address = st.integers(-2, DATA_SIZE + 1)
    pc_target = st.integers(-1, n_code + 1)
    if op in RR_OPS:
        return I(op, rd=draw(DST), rs1=draw(SRC), rs2=draw(SRC))
    if op in RI_OPS:
        return I(op, rd=draw(DST), rs1=draw(SRC),
                 imm=draw(st.one_of(st.sampled_from((0, 1, -1)), VALUE)))
    if op in (Op.SLLI, Op.SRLI):
        return I(op, rd=draw(DST), rs1=draw(SRC),
                 imm=draw(st.sampled_from((0, 1, 7, 63, 64))))
    if op is Op.LI:
        return I(op, rd=draw(DST), imm=draw(VALUE))
    if op is Op.LD:
        return I(op, rd=draw(DST), rs1=draw(BASE), imm=draw(address))
    if op is Op.ST:
        return I(op, rs1=draw(BASE), rs2=draw(SRC), imm=draw(address))
    if op in COND_OPS:
        return I(op, rs1=draw(SRC), rs2=draw(SRC), imm=draw(pc_target))
    if op in (Op.J, Op.JAL):
        return I(op, imm=draw(pc_target))
    if op in (Op.JR, Op.JALR, Op.RET):
        return I(op, rs1=draw(SRC))
    return I(op)


@st.composite
def programs(draw):
    """A short random program: seeded registers, then a random body run
    up to 200 times by a loop on ``r9``/``r10`` (out of the body's reach
    but for stray jumps), so its entry PCs get hot enough to compile."""
    n_body = draw(st.integers(3, 20))
    seeds = [I(Op.LI, rd=r, imm=draw(VALUE)) for r in range(2, 8)]
    seeds += [I(Op.LI, rd=9, imm=0), I(Op.LI, rd=10, imm=200)]
    head = len(seeds)
    n = head + n_body + 3
    body = draw(st.lists(body_instructions(n), min_size=n_body,
                         max_size=n_body))
    loop = [I(Op.ADDI, rd=9, rs1=9, imm=1),
            I(Op.BLT, rs1=9, rs2=10, imm=head), I(Op.HALT)]
    return Program(instructions=seeds + body + loop, data_size=DATA_SIZE,
                   name="fuzz")


#: Tiny budgets (interpreter loop only) and ones that leave room for
#: the warm-up and compiled superblocks before the loop takes over.
BUDGETS = st.sampled_from((range(1, 41),) + (
    range(2 * SUPERBLOCK_CAP, 12 * SUPERBLOCK_CAP),) * 3).flatmap(
        st.sampled_from)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(program=programs(), budget=BUDGETS)
    def test_random_programs(self, program, budget):
        scalar = assert_outcome_parity(program, budget)
        # Compiled at its first dispatch, every entry PC runs as
        # generated code until the interpreter loop takes over.
        with mock.patch.object(fast, "SUPERBLOCK_WARMUP", 0):
            assert _outcome(FastMachine(program), budget) == scalar
