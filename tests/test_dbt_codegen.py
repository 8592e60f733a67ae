"""Focused unit tests for code generation, cost model and scheduler."""

import dataclasses

import pytest

from repro.guest.assembler import assemble
from repro.guest.isa import Flag
from repro.dbt.codegen import (
    ALLOCATABLE,
    PARITY_TABLE_BASE,
    SCRATCH_BASE,
    generate_block,
    parity_table,
)
from repro.dbt.cost import estimate_block_cost, instruction_occupancy
from repro.dbt.frontend import build_ir
from repro.dbt.ir import ALL_FLAGS_MASK, ExitKind, FlagSem, IRBlock, Terminator, UOp, UOpKind
from repro.dbt.optimizer import optimize_block
from repro.dbt.optimizer.scheduler import schedule_block
from repro.dbt.translator import TranslationConfig, Translator
from repro.host.decoder import decode_host_instruction
from repro.host.encoder import encode_host_instruction
from repro.host.isa import (
    ExitReason,
    FLAGS_HOME,
    GUEST_REG_HOME,
    HostInstr,
    HostOp,
    HostReg,
)


def block_for(source: str, optimize: bool = True, table=None):
    program = assemble(source)
    text = program.text

    def read(address, length):
        offset = address - text.address
        return text.data[offset : offset + length]

    ir = build_ir(read, program.entry)
    if optimize:
        optimize_block(ir)
    return generate_block(ir, table)


class TestGeneratedCode:
    def test_every_instruction_encodes(self):
        block = block_for("_start: add eax, [ebx + ecx*4 + 8]\nimul edx, esi\nhlt\n")
        for instr in block.instrs:
            word = encode_host_instruction(instr)
            assert decode_host_instruction(word).op is instr.op

    def test_blocks_are_relocatable(self):
        # no absolute jumps inside a freshly generated block
        block = block_for("_start: cmp eax, 5\njne _start\nhlt\n")
        for instr in block.instrs:
            assert instr.op not in (HostOp.J, HostOp.JAL), "blocks must be relocatable"

    def test_stub_layout_is_uniform(self):
        block = block_for("_start: cmp eax, 5\njne _start\nhlt\n")
        assert len(block.exit_stubs) == 2
        for stub in block.exit_stubs:
            # lui/ori (or move/nop) then exitb: patch site is the exitb
            exitb = block.instrs[stub.patch_offset_words]
            assert exitb.op is HostOp.EXITB

    def test_conditional_block_has_two_targets(self):
        block = block_for("_start: cmp eax, 5\njne _start\nhlt\n")
        targets = sorted(t for _, t in block.stub_patch_offsets())
        assert len(targets) == 2

    def test_guard_emits_fault_stub(self):
        block = block_for("_start: div ecx\nhlt\n")
        kinds = [s.kind for s in block.exit_stubs]
        assert ExitReason.FAULT in kinds

    def test_syscall_stub(self):
        block = block_for("_start: int 0x80\n")
        assert block.exit_stubs[-1].kind is ExitReason.SYSCALL
        assert block.exit_kind == "syscall"

    def test_pinned_registers_not_allocated(self):
        for pinned in GUEST_REG_HOME:
            assert pinned not in ALLOCATABLE
        assert FLAGS_HOME not in ALLOCATABLE
        assert HostReg.V0 not in ALLOCATABLE

    def test_parity_table_contents(self):
        table = parity_table()
        assert len(table) == 256
        assert table[0] == 1  # zero bits: even
        assert table[1] == 0
        assert table[3] == 1
        assert table[0xFF] == 1

    def test_private_regions_do_not_collide(self):
        assert SCRATCH_BASE >> 12 != PARITY_TABLE_BASE >> 12

    def test_high_register_pressure_spills(self):
        # a block with many simultaneously-live values must spill, not crash
        lines = ["_start:"]
        for i in range(14):
            lines.append(f"    mov [0x8400000 + {i * 4}], {i + 1000}")
        # read-combine everything so all loads stay live
        lines.append("    mov eax, [0x8400000]")
        for i in range(1, 14):
            lines.append(f"    add eax, [0x8400000 + {i * 4}]")
        lines.append("    hlt")
        block = block_for("\n".join(lines), optimize=False)
        assert block.host_size_bytes > 0


class TestSharedInstructions:
    def test_host_instr_is_frozen(self):
        instr = HostInstr(HostOp.BEQ, rs=HostReg.T0, rt=HostReg.ZERO, imm=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            instr.imm = 4
        assert instr.imm == 3

    def test_equal_instructions_are_one_object(self):
        table = {}
        first = block_for("_start: add eax, 1\nhlt\n", table=table)
        second = block_for("_start: add eax, 1\nadd eax, 1\nhlt\n", table=table)
        exitb = [i for i in first.instrs if i.op is HostOp.EXITB][-1]
        assert any(i is exitb for i in second.instrs)
        assert len(table) == len({id(i) for i in table.values()})

    def test_equal_branch_shapes_get_independent_fixups(self):
        # both blocks guard the same divisor register with the same BEQ
        # shape, but their fault stubs sit at different offsets
        table = {}
        short = block_for("_start: div ecx\nhlt\n", table=table)
        long = block_for("_start: div ecx\nadd eax, 1\nadd ebx, eax\nhlt\n", table=table)

        def guard_target(block):
            index, guard = next(
                (i, instr) for i, instr in enumerate(block.instrs) if instr.op is HostOp.BEQ
            )
            return guard, index + 1 + guard.imm

        def fault_stub(block):
            return next(s.offset_words for s in block.exit_stubs if s.kind is ExitReason.FAULT)

        short_guard, short_target = guard_target(short)
        long_guard, long_target = guard_target(long)
        assert (short_guard.rs, short_guard.rt) == (long_guard.rs, long_guard.rt)
        assert short_guard.imm != long_guard.imm
        assert short_target == fault_stub(short)
        assert long_target == fault_stub(long)


def _flags_block(sem, width, mask, count_temp):
    """Defines t0..t4, then one FLAGS uop over a=t0, b=t1, result=t2.

    ``count_temp`` is ``None`` or the temp (t3 or t4) holding a dynamic
    shift count; the indirect exit reads the other one, so both stay
    live and the count sits in a different host register in each case.
    """
    ir = IRBlock(guest_address=0x1000, guest_length=1, guest_instr_count=1)
    for temp in range(5):
        ir.emit(UOp(UOpKind.CONST, dst=ir.new_temp(), imm=temp + 1))
    ir.emit(UOp(UOpKind.FLAGS, a=0, b=1, result=2, sem=sem, width=width, mask=mask,
                count=count_temp))
    ir.terminator = Terminator(ExitKind.INDIRECT, temp=4 if count_temp == 3 else 3)
    return ir


FLAG_CASES = [
    (sem, width, mask, count_temp)
    for sem in FlagSem
    for width in (8, 32)
    for mask in [ALL_FLAGS_MASK] + [1 << flag for flag in Flag]
    for count_temp in (None, 3, 4)
]


class TestFlagMemo:
    def test_warm_memo_emits_what_a_fresh_one_does(self):
        table, memo = {}, {}
        for case in FLAG_CASES:  # warm the memo over every case first
            generate_block(_flags_block(*case), table, memo)
        warm_size = len(memo)
        for case in FLAG_CASES:
            warm = generate_block(_flags_block(*case), table, memo)
            fresh = generate_block(_flags_block(*case))
            assert warm.instrs == fresh.instrs, case
        assert len(memo) == warm_size  # the second pass only hit

    def test_count_skip_lands_after_the_sequence(self):
        memo = {}
        for case in FLAG_CASES:
            if case[3] is None:
                continue
            for _ in range(2):  # a miss that fills the memo, then a hit
                block = generate_block(_flags_block(*case), flag_memo=memo)
                count_reg = ALLOCATABLE[case[3]]
                [(index, skip)] = [
                    (i, instr) for i, instr in enumerate(block.instrs)
                    if instr.op is HostOp.BEQ
                ]
                assert (skip.rs, skip.rt) == (count_reg, HostReg.ZERO)
                # the FLAGS uop is the last one: after it comes the exit stub
                assert index + 1 + skip.imm == block.exit_stubs[0].offset_words, case

    def test_memoized_sequences_are_the_translators_interned_instructions(self):
        program = assemble("_start: add eax, ebx\nadd ecx, edx\nhlt\n")
        text = program.text
        read = lambda a, n: text.data[a - text.address : a - text.address + n]
        translator = Translator(read, TranslationConfig(optimize=False))
        translator.translate(program.entry)
        interned = {id(instr) for instr in translator.instr_table.values()}
        assert translator.flag_memo
        for sequence in translator.flag_memo.values():
            assert all(id(instr) in interned for instr in sequence)


class TestCostModel:
    def test_load_latency_stalls_dependent_use(self):
        load = HostInstr(HostOp.LW, rt=HostReg.T0, rs=HostReg.S0, imm=0)
        use = HostInstr(HostOp.ADDU, rd=HostReg.T1, rs=HostReg.T0, rt=HostReg.T0)
        dependent = estimate_block_cost([load, use])
        filler = HostInstr(HostOp.ADDIU, rt=HostReg.T2, rs=HostReg.ZERO, imm=1)
        hidden = estimate_block_cost([load, filler, filler, use])
        assert dependent > estimate_block_cost([load]) + 1
        assert hidden <= dependent + 2  # fillers hide latency

    def test_hardware_mmu_intrinsics_cheaper(self):
        instrs = [
            HostInstr(HostOp.LW, rt=HostReg.T0, rs=HostReg.S0, imm=0),
            HostInstr(HostOp.ADDU, rd=HostReg.T1, rs=HostReg.T0, rt=HostReg.T0),
        ]
        software = estimate_block_cost(instrs)
        hardware = estimate_block_cost(instrs, load_latency=3, load_occupancy=1)
        assert hardware < software

    def test_occupancies(self):
        assert instruction_occupancy(HostInstr(HostOp.LW, rt=HostReg.T0)) == 4
        assert instruction_occupancy(HostInstr(HostOp.SW, rt=HostReg.T0)) == 2
        assert instruction_occupancy(HostInstr(HostOp.ADDU)) == 1


class TestScheduler:
    def test_preserves_instruction_multiset(self):
        block = block_for("_start: mov eax, [0x8400000]\nadd eax, ebx\nimul eax, ecx\nhlt\n")
        scheduled = schedule_block(block.instrs, pinned=[s.offset_words for s in block.exit_stubs])
        assert sorted(str(i) for i in scheduled) == sorted(str(i) for i in block.instrs)

    def test_never_crosses_stub_boundaries(self):
        block = block_for("_start: cmp eax, 5\njne _start\nhlt\n")
        pinned = [s.offset_words for s in block.exit_stubs]
        scheduled = schedule_block(block.instrs, pinned=pinned)
        for stub in block.exit_stubs:
            assert scheduled[stub.patch_offset_words].op is HostOp.EXITB

    def test_hoists_loads(self):
        load = HostInstr(HostOp.LW, rt=HostReg.T0, rs=HostReg.S0, imm=0)
        independent = HostInstr(HostOp.ADDIU, rt=HostReg.T1, rs=HostReg.ZERO, imm=5)
        use = HostInstr(HostOp.ADDU, rd=HostReg.T2, rs=HostReg.T0, rt=HostReg.T1)
        scheduled = schedule_block([independent, load, use])
        assert estimate_block_cost(scheduled) <= estimate_block_cost([independent, load, use])
        assert scheduled[0].op is HostOp.LW  # critical path first

    def test_store_load_order_preserved(self):
        store = HostInstr(HostOp.SW, rt=HostReg.T0, rs=HostReg.S0, imm=0)
        load = HostInstr(HostOp.LW, rt=HostReg.T1, rs=HostReg.S0, imm=0)
        scheduled = schedule_block([store, load])
        assert scheduled[0].op is HostOp.SW


class TestTranslationCostModel:
    def _translator(self, source, **config):
        program = assemble(source)
        text = program.text
        read = lambda a, n: text.data[a - text.address : a - text.address + n]
        return Translator(read, TranslationConfig(**config)), program

    def test_optimization_charged_per_uop(self):
        from repro.dbt.translator import (
            EMIT_PER_HOST_INSTR,
            OPTIMIZE_PER_UOP,
            TRANSLATE_BASE_COST,
            TRANSLATE_PER_GUEST_INSTR,
        )

        source = "_start: add eax, 1\nadd eax, 2\nhlt\n"
        opt, program = self._translator(source, optimize=True)
        block = opt.translate(program.entry)
        floor = (
            TRANSLATE_BASE_COST
            + TRANSLATE_PER_GUEST_INSTR * block.guest_instr_count
            + EMIT_PER_HOST_INSTR * len(block.instrs)
        )
        # the optimizer's per-uop charge is on top of the base pipeline
        assert block.translation_cycles >= floor + OPTIMIZE_PER_UOP * block.guest_instr_count

    def test_longer_blocks_cost_more(self):
        translator, program = self._translator(
            "_start: add eax, 1\nhlt\nbig:" + "add eax, 1\n" * 20 + "hlt\n"
        )
        small = translator.translate(program.entry)
        big = translator.translate(program.symbols["big"])
        assert big.translation_cycles > small.translation_cycles
