"""Unit tests for the assembler: labels, fixups, validation."""

import enum

import pytest

from repro.isa import Assembler, AssemblyError, Op
from repro.isa.opcodes import parse_register


class TestParseRegister:
    def test_numeric(self):
        assert parse_register(5) == 5

    def test_string(self):
        assert parse_register("r31") == 31

    def test_aliases(self):
        assert parse_register("zero") == 0
        assert parse_register("ra") == 1
        assert parse_register("sp") == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            parse_register(32)
        with pytest.raises(ValueError):
            parse_register("r99")

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_register("foo")
        with pytest.raises(ValueError):
            parse_register(None)
        with pytest.raises(ValueError):
            parse_register(True)

    @pytest.mark.parametrize("name", [
        True, False, -1, 32, 1 << 40, 1.0, "1", "r32", "r-1", "R1", " r1",
        "r", "", b"r1", None], ids=repr)
    def test_only_registers_resolve(self, name):
        """Bools, floats and out-of-range or malformed names miss the
        lookup table and are refused by the full checks."""
        with pytest.raises(ValueError):
            parse_register(name)

    def test_full_checks_behind_the_table(self):
        """Names the table does not list but the checks accept."""
        assert parse_register("r07") == 7
        assert parse_register(enum.IntEnum("Reg", {"T0": 3}).T0) == 3


class TestLabels:
    def test_forward_reference_resolves(self):
        asm = Assembler()
        asm.j("end")
        asm.nop()
        asm.label("end")
        asm.halt()
        prog = asm.assemble()
        assert prog.instructions[0].imm == 2

    def test_backward_reference_resolves(self):
        asm = Assembler()
        asm.label("top")
        asm.nop()
        asm.beq("r1", "r2", "top")
        asm.halt()
        prog = asm.assemble()
        assert prog.instructions[1].imm == 0

    def test_duplicate_label_rejected(self):
        asm = Assembler()
        asm.label("x")
        with pytest.raises(AssemblyError):
            asm.label("x")

    def test_undefined_label_rejected(self):
        asm = Assembler()
        asm.j("nowhere")
        asm.halt()
        with pytest.raises(AssemblyError):
            asm.assemble()

    def test_unplaced_reserved_label_rejected(self):
        asm = Assembler()
        asm.unique_label("pending")
        asm.halt()
        with pytest.raises(AssemblyError):
            asm.assemble()

    def test_unique_labels_are_distinct(self):
        asm = Assembler()
        a = asm.unique_label("x")
        c = asm.unique_label("x")
        assert a != c
        asm.place(a)
        asm.place(c)
        asm.halt()
        asm.assemble()

    def test_numeric_target_out_of_range(self):
        asm = Assembler()
        asm.j(99)
        asm.halt()
        with pytest.raises(AssemblyError):
            asm.assemble()

    def test_entry_label(self):
        asm = Assembler()
        asm.halt()
        asm.label("start")
        asm.entry("start")
        asm.halt()
        prog = asm.assemble()
        assert prog.entry == 1


class TestEmission:
    def test_branch_requires_branch_opcode(self):
        asm = Assembler()
        with pytest.raises(AssemblyError):
            asm.branch(Op.ADD, "r1", "r2", "x")

    def test_here_tracks_addresses(self):
        asm = Assembler()
        assert asm.here == 0
        asm.nop()
        asm.nop()
        assert asm.here == 2

    def test_mv_is_addi_zero(self):
        asm = Assembler()
        asm.mv("r3", "r4")
        asm.halt()
        prog = asm.assemble()
        inst = prog.instructions[0]
        assert inst.op is Op.ADDI
        assert inst.rd == 3 and inst.rs1 == 4 and inst.imm == 0

    def test_jal_writes_link_register(self):
        asm = Assembler()
        asm.label("f")
        asm.jal("f")
        asm.halt()
        prog = asm.assemble()
        assert prog.instructions[0].rd == 1

    def test_program_length_and_labels_exported(self):
        asm = Assembler()
        asm.label("a")
        asm.nop()
        asm.halt()
        prog = asm.assemble(name="t")
        assert len(prog) == 2
        assert prog.labels["a"] == 0
        assert prog.name == "t"

    def test_disassemble_mentions_labels(self):
        asm = Assembler()
        asm.label("loop")
        asm.addi("r1", "r1", 1)
        asm.bne("r1", "r2", "loop")
        asm.halt()
        text = asm.assemble().disassemble()
        assert "loop:" in text
        assert "bne" in text
