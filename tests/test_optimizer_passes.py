"""Unit tests for the newer optimizer passes: value numbering, strength
reduction and cross-block flag-liveness peeking."""

import dataclasses
import sys

import pytest

from repro.guest.assembler import assemble
from repro.guest.isa import ConditionCode, Flag, Register
from repro.guest.memory import MemoryFault
from repro.dbt.frontend import build_ir
from repro.dbt.ir import ALL_FLAGS_MASK, FlagSem, UOp, UOpKind, flag_mask
from repro.dbt.optimizer import (
    eliminate_dead_flags,
    fold_constants,
    number_values,
    propagate_copies,
    reduce_strength,
    successor_flag_liveness,
)
from repro.vm.functional import FunctionalVM
from repro.guest.interpreter import GuestInterpreter


def ir_for(source: str):
    program = assemble(source)
    text = program.text

    def read(address, length):
        offset = address - text.address
        return text.data[offset : offset + length]

    return build_ir(read, program.entry), read, program


class TestValueNumbering:
    def test_duplicate_address_arithmetic_merges(self):
        # [ebx + ecx*4 + 8] computed twice -> one EA computation
        ir, _, _ = ir_for(
            "_start: mov eax, [ebx + ecx*4 + 8]\nadd edx, [ebx + ecx*4 + 8]\nhlt\n"
        )
        propagate_copies(ir)
        fold_constants(ir)
        before = sum(1 for u in ir.uops if u.kind in (UOpKind.ADD, UOpKind.SHL))
        removed = number_values(ir)
        after = sum(1 for u in ir.uops if u.kind in (UOpKind.ADD, UOpKind.SHL))
        assert removed >= 2
        assert after < before

    def test_redundant_load_merges(self):
        ir, _, _ = ir_for("_start: mov eax, [0x8400000]\nmov edx, [0x8400000]\nhlt\n")
        propagate_copies(ir)
        fold_constants(ir)
        number_values(ir)
        loads = [u for u in ir.uops if u.kind is UOpKind.LD]
        assert len(loads) == 1

    def test_store_kills_load_availability(self):
        ir, _, _ = ir_for(
            "_start: mov eax, [0x8400000]\nmov [0x8400004], ecx\nmov edx, [0x8400000]\nhlt\n"
        )
        propagate_copies(ir)
        fold_constants(ir)
        number_values(ir)
        loads = [u for u in ir.uops if u.kind is UOpKind.LD]
        assert len(loads) == 2  # no alias analysis: the store is a barrier

    def test_commutative_canonicalization(self):
        ir, _, _ = ir_for("_start: mov eax, ebx\nadd eax, ecx\nmov edx, ecx\nadd edx, ebx\nhlt\n")
        propagate_copies(ir)
        removed = number_values(ir)
        assert removed >= 1  # ebx+ecx == ecx+ebx

    def test_semantics_preserved_end_to_end(self):
        source = """
        _start:
            mov ecx, 3
            mov ebx_unused equ 0
            mov eax, [table + ecx*4]
            add eax, [table + ecx*4]
            mov ebx, eax
            and ebx, 255
            mov eax, 1
            int 0x80
        .data
        table: dd 10, 20, 30, 40
        """.replace("mov ebx_unused equ 0\n", "")
        program = assemble(source)
        golden = GuestInterpreter.for_program(assemble(source))
        assert FunctionalVM(program).run() == golden.run()


class TestStrengthReduction:
    def test_mul_by_power_of_two_becomes_shift(self):
        ir, _, _ = ir_for("_start: imul eax, 8\nhlt\n".replace("imul eax, 8", "mov ecx, 8\nimul eax, ecx"))
        propagate_copies(ir)
        fold_constants(ir)
        replaced = reduce_strength(ir)
        assert replaced == 1
        assert not [u for u in ir.uops if u.kind is UOpKind.MUL]
        assert [u for u in ir.uops if u.kind is UOpKind.SHL]

    def test_non_power_of_two_untouched(self):
        ir, _, _ = ir_for("_start: mov ecx, 7\nimul eax, ecx\nhlt\n")
        propagate_copies(ir)
        fold_constants(ir)
        assert reduce_strength(ir) == 0

    def test_differential_correctness(self):
        source = """
        _start:
            mov eax, 12345
            mov ecx, 16
            imul eax, ecx
            seto edx
            mov ebx, eax
            and ebx, 255
            mov eax, 1
            int 0x80
        """
        program = assemble(source)
        golden = GuestInterpreter.for_program(assemble(source))
        assert FunctionalVM(program).run() == golden.run()


class TestFlagPeek:
    def test_successor_overwrites_all_flags(self):
        # successor: add (writes all five) -> nothing live across the edge
        ir, read, program = ir_for("_start: jmp next\nnext: add eax, ebx\nhlt\n")
        live = successor_flag_liveness(read, [program.symbols["next"]])
        assert live == 0

    def test_successor_reads_zf(self):
        # je whose both paths land on an all-flag-writing add: only ZF
        # is observable across the edge
        ir, read, program = ir_for(
            "_start: jmp next\nnext: je after\nafter: add eax, ebx\nhlt\n"
        )
        live = successor_flag_liveness(read, [program.symbols["next"]])
        assert live & flag_mask([Flag.ZF])
        assert not live & flag_mask([Flag.CF])

    def test_inc_leaves_cf_live(self):
        # inc overwrites everything except CF; the following jc reads it
        ir, read, program = ir_for("_start: jmp next\nnext: inc eax\njb _start\nhlt\n")
        live = successor_flag_liveness(read, [program.symbols["next"]])
        assert live & flag_mask([Flag.CF])
        assert not live & flag_mask([Flag.ZF])

    def test_indirect_successor_is_fully_live(self):
        ir, read, program = ir_for("_start: jmp next\nnext: jmp eax\n")
        live = successor_flag_liveness(read, [program.symbols["next"]])
        assert live == ALL_FLAGS_MASK

    def test_dynamic_shift_cannot_kill(self):
        # shl by cl may preserve flags; a later jc still sees the old CF
        ir, read, program = ir_for(
            "_start: jmp next\nnext: shl eax, ecx\njb _start\nhlt\n"
        )
        live = successor_flag_liveness(read, [program.symbols["next"]])
        assert live & flag_mask([Flag.CF])

    def test_branchy_successors_union(self):
        source = """
        _start: jmp next
        next:
            je taken
            add eax, ebx        ; kills everything on fallthrough
            hlt
        taken:
            setb ecx            ; reads CF on taken path
            hlt
        """
        ir, read, program = ir_for(source)
        live = successor_flag_liveness(read, [program.symbols["next"]])
        assert live & flag_mask([Flag.ZF])  # je reads ZF
        assert live & flag_mask([Flag.CF])  # setb on one path

    def test_empty_successors_conservative(self):
        _, read, _ = ir_for("_start: hlt\n")
        assert successor_flag_liveness(read, []) == ALL_FLAGS_MASK

    def test_unmapped_successor_is_fully_live(self):
        def read(address, length):
            raise MemoryFault(address, "unmapped")

        assert successor_flag_liveness(read, [0x1000]) == ALL_FLAGS_MASK

    def test_reader_bug_propagates(self):
        # only the errors a code reader or the decoder raise for bad
        # guest bytes mean "conservatively live"; a broken reader must
        # stop the translation instead
        def read(address, length):
            raise RuntimeError("reader bug")

        with pytest.raises(RuntimeError, match="reader bug"):
            successor_flag_liveness(read, [0x1000])


class TestSlottedUOp:
    def _pruned_flags_uop(self):
        # inc overwrites every flag add writes except CF, so deadflags
        # prunes the add's FLAGS mask to CF in place
        ir, _, _ = ir_for("_start: add eax, ebx\ninc eax\nhlt\n")
        eliminate_dead_flags(ir)
        flags = [u for u in ir.uops if u.kind is UOpKind.FLAGS]
        assert flags[0].mask == flag_mask([Flag.CF])
        return flags[0]

    def test_with_sources_returns_self_when_nothing_remaps(self):
        uop = self._pruned_flags_uop()
        assert uop.with_sources({}) is uop
        assert uop.with_sources({max(uop.sources()) + 100: 0}) is uop

    def test_remapped_copy_keeps_every_field(self):
        names = [f.name for f in dataclasses.fields(UOp)]
        assert len(names) == 13
        # every field away from its default, so a dropped one shows
        full = UOp(UOpKind.FLAGS, dst=9, a=1, b=2, imm=5, reg=Register.ECX, width=8,
                   signed=True, cc=ConditionCode.E, sem=FlagSem.SHL, mask=0x41,
                   result=3, count=4)
        assert all(getattr(full, f.name) != f.default for f in dataclasses.fields(UOp))
        pruned = self._pruned_flags_uop()
        for uop in (full, pruned):
            mapping = {temp: temp + 1000 for temp in uop.sources()}
            copy = uop.with_sources(mapping)
            assert copy is not uop
            for name in names:
                expected = getattr(uop, name)
                if name in ("a", "b", "result", "count") and expected is not None:
                    expected += 1000
                assert getattr(copy, name) == expected, name
        assert copy.mask == flag_mask([Flag.CF])

    @pytest.mark.skipif(sys.version_info < (3, 10), reason="slots=True needs 3.10")
    def test_uop_has_no_instance_dict(self):
        uop = self._pruned_flags_uop()
        assert not hasattr(uop, "__dict__")
        assert not hasattr(uop.with_sources({uop.a: 1000}), "__dict__")
