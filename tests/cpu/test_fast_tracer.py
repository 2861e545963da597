"""Capture parity: the tiered fast tracer vs the reference interpreter.

The scalar :class:`~repro.cpu.machine.Machine` is ground truth; the
vectorized :class:`~repro.cpu.fast.FastMachine` must reproduce it
bit-for-bit — every trace record, the run counters, and the full
architectural end state.  The suite sweeps every registered workload at
a 10^5-instruction budget, sweeps the budgets around the superblock cap
where the dispatch loop hands off to the scalar tail, and then pins the
arithmetic corners the generated code is most likely to get wrong
(64-bit wrap, C-style division truncation, shift-amount masking,
logical-shift of negatives).
"""

import numpy as np
import pytest

from repro.cpu import FastMachine, Machine
from repro.cpu.codegen import SUPERBLOCK_CAP
from repro.isa import ProgramBuilder
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
        if not np.array_equal(a, b):
            first = int(np.flatnonzero(a != b)[0])
            pytest.fail(f"trace.{field} diverges at record {first}: "
                        f"scalar {a[first]} vs fast {b[first]}")

    assert list(fast.regs) == list(scalar.regs)
    hi = fast.hi_mem
    for addr, expected in enumerate(scalar.mem):
        actual = hi.get(addr)
        if actual is None:
            actual = int(fast.mem[addr])
        assert actual == expected, \
            f"mem[{addr}]: scalar {expected} vs fast {actual}"
    return s_res, f_res


class TestWorkloadParity:
    """Every registered analog, both suites plus extras, at 10^5."""

    @pytest.mark.parametrize("name", workload_names())
    def test_capture_parity(self, name):
        program = REGISTRY.program(name)
        s_res, _f_res = assert_capture_parity(program, PARITY_BUDGET)
        assert s_res.instructions >= PARITY_BUDGET or s_res.halted


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
#: superblocks run and past which the scalar tail takes over.
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
        # re-wrapping — the documented scalar semantics the fast tier's
        # wide-value overlay exists to preserve.
        assert machine.regs[7] == (1 << 64) - 1
        assert machine.regs[9] == (1 << 64) - 1
        assert machine.hi_mem.get(100) == (1 << 64) - 1


class TestStreamingCapture:
    def test_run_streaming_matches_run(self):
        program = REGISTRY.program("compress")
        reference = FastMachine(program).run(max_instructions=20_000)

        parts = []

        def sink(pc, kind, taken, target):
            parts.append((pc.copy(), kind.copy(), taken.copy(),
                          target.copy()))
            return len(parts)

        executed, halted, truncated = FastMachine(program).run_streaming(
            sink, max_instructions=20_000, flush_records=1024)
        assert executed == reference.instructions
        assert halted == reference.halted
        assert truncated == reference.trace.truncated
        for i, field in enumerate(("pc", "kind", "taken", "target")):
            streamed = np.concatenate([p[i] for p in parts])
            np.testing.assert_array_equal(
                streamed, getattr(reference.trace, field))

    def test_flush_bounds_segment_size(self):
        program = REGISTRY.program("compress")
        sizes = []

        def sink(pc, _kind, _taken, _target):
            sizes.append(len(pc))

        FastMachine(program).run_streaming(sink,
                                           max_instructions=20_000,
                                           flush_records=512)
        assert len(sizes) > 1
        # A flush fires once the buffer reaches flush_records, and one
        # superblock (or the scalar tail plus its synthetic HALT) adds
        # at most SUPERBLOCK_CAP records past that.
        assert max(sizes) <= 512 + SUPERBLOCK_CAP
