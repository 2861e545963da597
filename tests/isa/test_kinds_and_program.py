"""InstrKind classification, static code maps, instruction repr."""

import hashlib

import numpy as np
import pytest

from repro.cpu.tables import compile_program
from repro.isa import Assembler, InstrKind, Instruction, Op, classify_op
from repro.isa.kinds import INDIRECT_KINDS, OP_KINDS, TRANSFER_KINDS
from repro.isa.program import StaticCode
from repro.runtime.cache import program_digest
from repro.workloads import REGISTRY


class TestClassifyOp:
    def test_conditionals(self):
        for op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT):
            assert classify_op(op) is InstrKind.COND

    def test_direct_jump(self):
        assert classify_op(Op.J) is InstrKind.JUMP

    def test_calls(self):
        assert classify_op(Op.JAL) is InstrKind.CALL
        assert classify_op(Op.JALR) is InstrKind.CALL

    def test_return_vs_indirect(self):
        assert classify_op(Op.RET) is InstrKind.RETURN
        assert classify_op(Op.JR) is InstrKind.INDIRECT

    def test_halt(self):
        assert classify_op(Op.HALT) is InstrKind.HALT

    def test_alu_and_memory_are_nonbranch(self):
        for op in (Op.ADD, Op.MULI, Op.LD, Op.ST, Op.NOP, Op.LI):
            assert classify_op(op) is InstrKind.NONBRANCH

    def test_kind_sets(self):
        assert InstrKind.COND in TRANSFER_KINDS
        assert InstrKind.HALT not in TRANSFER_KINDS
        assert INDIRECT_KINDS == {InstrKind.RETURN, InstrKind.INDIRECT}


def reference_classify_op(op):
    """The per-call compare chain :data:`OP_KINDS` replaced."""
    if op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT):
        return InstrKind.COND
    if op is Op.J:
        return InstrKind.JUMP
    if op in (Op.JAL, Op.JALR):
        return InstrKind.CALL
    if op is Op.RET:
        return InstrKind.RETURN
    if op is Op.JR:
        return InstrKind.INDIRECT
    if op is Op.HALT:
        return InstrKind.HALT
    return InstrKind.NONBRANCH


def test_op_kinds_matches_the_compare_chain():
    assert list(OP_KINDS) == list(Op)
    for op in Op:
        assert OP_KINDS[op] is reference_classify_op(op) is classify_op(op)


def _arrays_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


#: Per registered program: its ``program_digest``, a digest of its
#: ``StaticCode`` arrays and one of its ``CompiledProgram`` tables, as
#: the compare-chain classifier built them.
DECODED = {
    "applu": ("1e99d23256c37fb5", "a9f7a3317dea0954", "be32897c589c8724"),
    "apsi": ("b800ffe687de3fc2", "16f1fe9323edeca6", "326b2e105c2fd402"),
    "compress": ("80acf6ec81004795", "b165b5013d0ac8c7",
                 "c3fa2d399726529b"),
    "fpppp": ("98afd16ab50f8393", "b509932e7ef325e1", "1905c121156af069"),
    "gcc": ("7cf102c37ee88e99", "814c903ee9f2b12b", "96792576c2aef013"),
    "go": ("9c5ffd9c9148a03a", "85fa26f3d45337df", "c3b6197760f45f53"),
    "hydro2d": ("9e2cbaf5c0e847cc", "d26e13ff838bd42b", "cd9a797b4563ad44"),
    "ijpeg": ("0a65f3bcfcfccda0", "cb4eff2d95067a6a", "29ba2790d17d37e8"),
    "kmp": ("fa909c86b621110c", "8ca5db0704839b3f", "9557234d74dac462"),
    "li": ("7a457529439f758c", "ecd1e1279d2becd5", "79d8d95ffedf5ac5"),
    "m88ksim": ("d5b1bdda1b7989e9", "daeb88990de3c83f", "d87f510993ac8ef5"),
    "mgrid": ("440f425cc2d61b9f", "891788eea527ee19", "e3cfd9dc2c14079d"),
    "perl": ("ddd8cedadc14896b", "c8aa51d842855973", "97119193a7826ca7"),
    "su2cor": ("cb6a294f6da8bc35", "5d66759f5c3a68b3", "3dcd114ab69f3939"),
    "swim": ("d21b866dcac4addf", "71530492c68c5248", "51f6f11bef555f3c"),
    "tomcatv": ("3825a59b74fc446d", "6130cfc591b49288", "0c946271499d25b9"),
    "turb3d": ("37c44ccbe5b0f74a", "f3a8ee368a4c4675", "54cc5daef44e5c75"),
    "vortex": ("eff5742cecc92c53", "8851d433ca923f00", "188bea697a7694f2"),
    "wave5": ("d3b7fa662b0d5014", "b74f1f897b2dfc26", "6e99ff3dea54431a"),
}


def test_registered_programs_decode_unchanged():
    assert sorted(REGISTRY.names()) == sorted(DECODED)
    for name in REGISTRY.names():
        program = REGISTRY.get(name).build()
        static = program.static_code()
        compiled = compile_program(program)
        assert (program_digest(program),
                _arrays_digest(static.kind, static.direct_target),
                _arrays_digest(compiled.kind, compiled.target,
                               compiled.indirect, np.array(compiled.ops),
                               np.array(compiled.rd), np.array(compiled.rs1),
                               np.array(compiled.rs2),
                               np.array(compiled.imm))) == DECODED[name]
        assert static.kind.tolist() == [
            int(reference_classify_op(i.op)) for i in program.instructions]


class TestStaticCode:
    def _program(self):
        asm = Assembler()
        asm.nop()                    # 0
        asm.beq("r1", "r2", 5)       # 1 direct target 5
        asm.j(0)                     # 2 direct target 0
        asm.jal(5)                   # 3 direct call
        asm.jr("r4")                 # 4 indirect
        asm.label("f")
        asm.ret()                    # 5
        asm.halt()                   # 6
        return asm.assemble()

    def test_kinds(self):
        static = self._program().static_code()
        expected = [InstrKind.NONBRANCH, InstrKind.COND, InstrKind.JUMP,
                    InstrKind.CALL, InstrKind.INDIRECT, InstrKind.RETURN,
                    InstrKind.HALT]
        assert [InstrKind(k) for k in static.kind] == expected

    def test_direct_targets(self):
        static = self._program().static_code()
        assert static.direct_target[1] == 5   # cond
        assert static.direct_target[2] == 0   # jump
        assert static.direct_target[3] == 5   # direct call
        assert static.direct_target[4] == -1  # indirect
        assert static.direct_target[5] == -1  # return

    def test_jalr_call_has_no_static_target(self):
        asm = Assembler()
        asm.jalr("r4")
        asm.halt()
        static = asm.assemble().static_code()
        assert InstrKind(static.kind[0]) is InstrKind.CALL
        assert static.direct_target[0] == -1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StaticCode(kind=np.zeros(3, dtype=np.uint8),
                       direct_target=np.zeros(2, dtype=np.int64))

    def test_len(self):
        assert len(self._program().static_code()) == 7


class TestInstructionRepr:
    @pytest.mark.parametrize("inst,fragment", [
        (Instruction(Op.BEQ, rs1=1, rs2=2, target="x"), "beq r1, r2"),
        (Instruction(Op.J, target=7), "j 7"),
        (Instruction(Op.JR, rs1=5), "jr r5"),
        (Instruction(Op.LD, rd=3, rs1=2, imm=4), "ld r3, 4(r2)"),
        (Instruction(Op.ST, rs2=3, rs1=2, imm=4), "st r3, 4(r2)"),
        (Instruction(Op.LI, rd=3, imm=9), "li r3, 9"),
        (Instruction(Op.RET), "ret"),
        (Instruction(Op.ADD, rd=1, rs1=2, rs2=3), "add r1"),
    ])
    def test_str_contains(self, inst, fragment):
        assert fragment in str(inst)

    def test_properties(self):
        beq = Instruction(Op.BEQ, rs1=1, rs2=2, target=0)
        assert beq.is_control and beq.is_cond_branch
        assert not beq.is_direct_jump and not beq.is_indirect
        jal = Instruction(Op.JAL, rd=1, target=0)
        assert jal.is_direct_jump and jal.is_control
        ret = Instruction(Op.RET, rs1=1)
        assert ret.is_indirect
        add = Instruction(Op.ADD, rd=1, rs1=2, rs2=3)
        assert not add.is_control
