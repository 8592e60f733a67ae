"""Tests for the VX86 text assembler."""

import pytest

from repro.guest.assembler import AssemblyError, assemble
from repro.guest.decoder import decode_instruction
from repro.guest.isa import Immediate, MemoryOperand, Op, Register, RegisterOperand
from repro.guest.program import TEXT_BASE


def decode_all(program):
    """Decode the whole .text section into a list of instructions."""
    code = program.text.data
    out = []
    offset = 0
    while offset < len(code):
        instr = decode_instruction(code, offset, program.text.address + offset)
        out.append(instr)
        offset += instr.length
    return out


class TestBasicAssembly:
    def test_simple_program(self):
        program = assemble(
            """
            _start:
                mov eax, 1
                add eax, 2
                hlt
            """
        )
        ops = [i.op for i in decode_all(program)]
        assert ops == [Op.MOV, Op.ADD, Op.HLT]
        assert program.entry == TEXT_BASE

    def test_entry_defaults_to_start_label(self):
        program = assemble("nop\n_start: hlt\n")
        assert program.entry == TEXT_BASE + 1

    def test_explicit_entry_directive(self):
        program = assemble(".entry main\nnop\nmain: hlt\n")
        assert program.entry == program.symbols["main"]

    def test_labels_and_branches(self):
        program = assemble(
            """
            _start:
                mov ecx, 10
            top:
                dec ecx
                jnz top
                hlt
            """
        )
        instrs = decode_all(program)
        jnz = next(i for i in instrs if i.op is Op.JCC)
        assert jnz.target == program.symbols["top"]

    def test_forward_references(self):
        program = assemble(
            """
            _start:
                jmp done
                nop
            done:
                hlt
            """
        )
        instrs = decode_all(program)
        assert instrs[0].target == program.symbols["done"]

    def test_comments_and_blank_lines(self):
        program = assemble("; leading comment\n\n_start:\n  nop  # trailing\n  hlt\n")
        assert [i.op for i in decode_all(program)] == [Op.NOP, Op.HLT]

    def test_label_on_same_line_as_instruction(self):
        program = assemble("_start: nop\nhlt\n")
        assert program.symbols["_start"] == TEXT_BASE


class TestOperandParsing:
    def test_memory_operands(self):
        program = assemble("_start: mov eax, [ebx + ecx*4 + 8]\nhlt\n")
        instr = decode_all(program)[0]
        assert instr.src == MemoryOperand(Register.EBX, Register.ECX, 4, 8)

    def test_negative_displacement(self):
        program = assemble("_start: mov eax, [ebp - 12]\nhlt\n")
        instr = decode_all(program)[0]
        assert instr.src == MemoryOperand(Register.EBP, None, 1, -12)

    def test_absolute_memory(self):
        program = assemble("_start: mov eax, [0x8400000]\nhlt\n")
        instr = decode_all(program)[0]
        assert instr.src == MemoryOperand(None, None, 1, 0x8400000)

    def test_label_as_displacement(self):
        program = assemble(
            """
            _start: mov eax, [buffer + 4]
            hlt
            .data
            buffer: dd 1, 2, 3
            """
        )
        instr = decode_all(program)[0]
        assert instr.src.disp == program.symbols["buffer"] + 4

    def test_equ_constants_and_expressions(self):
        program = assemble(
            """
            COUNT equ 10
            SIZE equ COUNT * 4
            _start: mov eax, SIZE + (1 << 8)
            hlt
            """
        )
        instr = decode_all(program)[0]
        assert instr.src == Immediate(40 + 256)

    def test_char_literal(self):
        program = assemble("_start: mov eax, 'A'\nhlt\n")
        assert decode_all(program)[0].src == Immediate(65)

    def test_byte_width_mnemonics(self):
        program = assemble("_start: movb [eax], 5\naddb bl, 1\nhlt\n".replace("bl", "ebx"))
        instrs = decode_all(program)
        assert instrs[0].width == 8
        assert instrs[1].width == 8

    def test_shift_by_cl(self):
        program = assemble("_start: shl eax, ecx\nhlt\n")
        instr = decode_all(program)[0]
        assert instr.op is Op.SHL
        assert instr.src == RegisterOperand(Register.ECX)

    def test_condition_aliases(self):
        program = assemble("_start: je x\njz x\njnae x\nx: hlt\n")
        instrs = decode_all(program)
        assert instrs[0].cc == instrs[1].cc  # je == jz


class TestDataDirectives:
    def test_db_dd_dz(self):
        program = assemble(
            """
            _start: hlt
            .data
            bytes: db 1, 2, 0xFF
            words: dd 0x11223344, words
            zeros: dz 16
            """
        )
        data = next(s for s in program.sections if s.name == ".data")
        assert data.data[:3] == bytes([1, 2, 0xFF])
        assert data.data[3:7] == (0x11223344).to_bytes(4, "little")
        assert data.data[7:11] == program.symbols["words"].to_bytes(4, "little")
        assert data.data[11:27] == bytes(16)

    def test_string_literal(self):
        program = assemble('_start: hlt\n.data\nmsg: db "hi\\n"\n')
        data = next(s for s in program.sections if s.name == ".data")
        assert data.data == b"hi\n"

    def test_align(self):
        program = assemble("_start: hlt\n.data\ndb 1\n.align 8\naligned: db 2\n")
        assert program.symbols["aligned"] % 8 == 0


def assembly_error(source):
    """The :class:`AssemblyError` that assembling ``source`` raises."""
    with pytest.raises(AssemblyError) as info:
        assemble(source)
    return info.value


class TestErrors:
    def test_unknown_mnemonic(self):
        assert assembly_error("_start: frobnicate eax\n").line_number == 1

    def test_undefined_symbol(self):
        assert assembly_error("_start: mov eax, nosuchlabel\nhlt\n").line_number == 1

    def test_duplicate_label(self):
        assert assembly_error("x: nop\nx: nop\n").line_number == 2

    def test_wrong_operand_count(self):
        assert assembly_error("_start: add eax\n").line_number == 1

    def test_bad_shift_count_register(self):
        assert assembly_error("_start: shl eax, ebx\n").line_number == 1

    def test_unterminated_memory_operand(self):
        assert assembly_error("_start: mov eax, [ebx\n").line_number == 1


class TestErrorAttribution:
    """Every malformed statement is blamed on its own line, in source order."""

    @pytest.mark.parametrize("statement, message", [
        ("mov 5, eax", "unsupported ALU operand combination"),
        ("lea eax, ebx", "lea source must be a memory operand"),
        ("mov eax, 010", "bad number '010'"),
        ("cmp al, ' '", "undefined symbol 'al'"),
        ("mov eax, ebx + 1", "undefined symbol 'ebx'"),
        ("shl eax, 1 << (2 - 3)", "negative shift count"),
        ("mov eax, )", "unexpected ')'"),
        ("mov eax, 'ab'", "bad expression near"),
        ("mov eax, '\\x'", "bad character literal"),
    ])
    def test_malformed_instruction(self, statement, message):
        error = assembly_error(f"_start: nop\n{statement}\nhlt\n")
        assert error.line_number == 2
        assert message in str(error)

    @pytest.mark.parametrize("statement, message", [
        ("dd 08", "bad number '08'"),
        ("dz -1", "dz count -1 is negative"),
        ("dz", "dz expects 1 operand(s), got 0"),
    ])
    def test_malformed_data(self, statement, message):
        error = assembly_error(f"_start: hlt\n.data\n{statement}\n")
        assert error.line_number == 3
        assert message in str(error)

    def test_undefined_name_read_only_by_a_dependent_statement(self):
        error = assembly_error("_start: mov eax, [buf + 4]\nmov eax, [nosuch + 4]\nhlt\n"
                               ".data\nbuf: dd 0\n")
        assert error.line_number == 2
        assert "undefined symbol 'nosuch'" in str(error)

    def test_undefined_name_read_only_by_a_branch(self):
        error = assembly_error("_start: nop\njnz done\njmp nosuch\ndone: hlt\n")
        assert error.line_number == 3
        assert "undefined symbol 'nosuch'" in str(error)

    def test_undefined_names_in_directives(self):
        assert assembly_error("_start: hlt\nX equ nosuch\n").line_number == 2
        assert assembly_error("_start: hlt\n.align nosuch\n").line_number == 2

    def test_repeated_bad_line_blames_its_first_occurrence(self):
        source = "_start: mov eax, 1\nmov eax, 1\nmov eax, [ebx\nmov eax, [ebx\n"
        assert assembly_error(source).line_number == 3

    def test_bad_operand_after_good_lines_with_the_same_operands(self):
        error = assembly_error("_start: mov eax, ebx\nmov eax, ebx\nlea eax, ebx\n")
        assert error.line_number == 3

    def test_shared_good_statement_does_not_hide_a_later_error(self):
        source = "_start: mov eax, [buf]\nmov eax, [buf]\nmov 5, [buf]\nhlt\n.data\nbuf: dd 0\n"
        assert assembly_error(source).line_number == 3

    def test_duplicate_label_before_parse_error_wins(self):
        error = assembly_error("x: nop\nx: nop\nfrobnicate\n")
        assert error.line_number == 2
        assert "duplicate label" in str(error)

    def test_parse_error_before_duplicate_label_wins(self):
        error = assembly_error("frobnicate\nx: nop\nx: nop\n")
        assert error.line_number == 1
        assert "unknown mnemonic" in str(error)

    def test_layout_error_wins_over_earlier_undefined_symbol(self):
        # Undefined names are only known once layout has finished.
        error = assembly_error("_start: mov eax, nosuch\nfrobnicate\n")
        assert error.line_number == 2


class TestQuotedLiterals:
    @pytest.mark.parametrize("char", [";", "#", ","])
    def test_char_literal_holding_a_separator(self, char):
        program = assemble(f"_start: mov eax, '{char}'  ; comment, with ' and #\nhlt\n")
        assert decode_all(program)[0].src == Immediate(ord(char))

    def test_separators_inside_a_string(self):
        program = assemble('_start: hlt\n.data\nmsg: db "a;b#c,d", \',\', 0 ; trailing\n')
        data = next(s for s in program.sections if s.name == ".data")
        assert data.data == b"a;b#c,d,\0"

    def test_escaped_quote_inside_a_string(self):
        program = assemble('_start: hlt\n.data\nmsg: db "say \\"hi\\"" ; c\n')
        data = next(s for s in program.sections if s.name == ".data")
        assert data.data == b'say "hi"'


class TestIndirectBranches:
    def test_call_through_register(self):
        program = assemble("_start: call eax\nhlt\n")
        instr = decode_all(program)[0]
        assert instr.op is Op.CALL
        assert instr.is_indirect_branch

    def test_jmp_through_table(self):
        program = assemble(
            """
            _start: jmp [table + eax*4]
            hlt
            .data
            table: dd _start
            """
        )
        instr = decode_all(program)[0]
        assert instr.op is Op.JMP
        assert instr.dst.index is Register.EAX

    def test_call_label_is_direct(self):
        program = assemble("_start: call fn\nhlt\nfn: ret\n")
        instr = decode_all(program)[0]
        assert instr.target == program.symbols["fn"]
        assert not instr.is_indirect_branch
