"""``turb3d`` analog (SPECfp95 125.turb3d).

The original simulates isotropic turbulence with 3D FFTs: butterfly loops
at log2(N) strides plus bit-reversal permutation.  Loop bounds dominate;
the bit-reversal swap test (i < rev(i)) is the one non-loop branch, with a
fixed learnable pattern.

The analog runs radix-2 integer butterfly passes over a length-256 signal
with a twiddle-free kernel, preceded by the bit-reversal permutation, the
whole transform repeated and alternated with a pointwise "nonlinear term"
pass (square and scale) as the time loop.
"""

from __future__ import annotations

from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from .base import REGISTRY, SUITE_FP
from .codegen import rand_into, seed_rng

LOG_N = 8
N = 1 << LOG_N
RE = 0
IM = N
OUTER = 1_000_000


@REGISTRY.register("turb3d", SUITE_FP,
                   "FFT butterflies with bit-reversal permutation")
def build(outer: int = OUTER) -> Program:
    """Build the analog; ``outer`` bounds the transform timesteps."""
    b = ProgramBuilder(name="turb3d", data_size=1 << 11)

    r_i = "r3"
    r_j = "r4"
    r_t0 = "r10"
    r_t1 = "r11"
    r_a = "r12"
    r_b2 = "r13"
    r_rev = "r14"

    with b.function("bit_reverse", leaf=True):
        # rev = bit-reverse of i, computed with an unrolled shift chain;
        # swap when i < rev (the fixed ~50% pattern real FFTs have).
        with b.for_range(r_i, 0, N):
            b.asm.li(r_rev, 0)
            b.asm.mv(r_t0, r_i)
            for _ in range(LOG_N):
                b.asm.slli(r_rev, r_rev, 1)
                b.asm.andi(r_t1, r_t0, 1)
                b.asm.or_(r_rev, r_rev, r_t1)
                b.asm.srli(r_t0, r_t0, 1)
            with b.if_("lt", r_i, r_rev):
                b.asm.addi(r_t0, r_i, RE)
                b.asm.ld(r_a, r_t0, 0)
                b.asm.addi(r_t1, r_rev, RE)
                b.asm.ld(r_b2, r_t1, 0)
                b.asm.st(r_b2, r_t0, 0)
                b.asm.st(r_a, r_t1, 0)

    # One function per butterfly stage (fixed strides, like an unrolled
    # FFT driver loop).
    for stage in range(LOG_N):
        half = 1 << stage
        step = half * 2
        with b.function(f"stage_{stage}", leaf=True):
            with b.for_range(r_i, 0, N, step=step):
                for k in range(half):
                    b.asm.addi(r_t0, r_i, RE + k)
                    b.asm.ld(r_a, r_t0, 0)
                    b.asm.ld(r_b2, r_t0, half)
                    b.asm.add(r_t1, r_a, r_b2)
                    b.asm.sub(r_a, r_a, r_b2)
                    b.asm.st(r_t1, r_t0, 0)
                    b.asm.st(r_a, r_t0, half)
                    if half > 4:
                        break  # cap the unroll; remaining lanes loop below
                if half > 4:
                    with b.for_range(r_j, 1, half):
                        b.asm.add(r_t0, r_i, r_j)
                        b.asm.addi(r_t0, r_t0, RE)
                        b.asm.ld(r_a, r_t0, 0)
                        b.asm.ld(r_b2, r_t0, half)
                        b.asm.add(r_t1, r_a, r_b2)
                        b.asm.sub(r_a, r_a, r_b2)
                        b.asm.st(r_t1, r_t0, 0)
                        b.asm.st(r_a, r_t0, half)

    with b.function("nonlinear", leaf=True):
        # Pointwise u <- (u*u) >> 8, bounded (the convective term analog).
        with b.for_range(r_i, 0, N):
            b.asm.addi(r_t0, r_i, RE)
            b.asm.ld(r_a, r_t0, 0)
            b.asm.mul(r_a, r_a, r_a)
            b.asm.srli(r_a, r_a, 8)
            b.asm.andi(r_a, r_a, 1023)
            b.asm.st(r_a, r_t0, 0)

    with b.function("main"):
        seed_rng(b, 0x7B3D)
        with b.for_range(r_i, 0, N):
            rand_into(b, r_t1, 1024)
            b.asm.addi(r_t0, r_i, RE)
            b.asm.st(r_t1, r_t0, 0)
        with b.for_range("r16", 0, outer):
            b.call("bit_reverse")
            for stage in range(LOG_N):
                b.call(f"stage_{stage}")
            b.call("nonlinear")

    return b.build()
