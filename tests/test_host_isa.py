"""Tests for the R32 host ISA: encoding roundtrips and the interpreter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.host.assembler import HostAssemblyError, assemble_host
from repro.host.decoder import HostDecodeError, decode_host_instruction
from repro.host.encoder import HostEncodeError, encode_host_instruction
from repro.host.interpreter import BlockExit, HostCodeSpace, HostFault, HostInterpreter
from repro.host.isa import (
    BRANCH1_OPS,
    BRANCH2_OPS,
    ExitReason,
    HostInstr,
    HostOp,
    HostReg,
    I_ALU_OPS,
    MEMORY_OPS,
    R_TYPE_OPS,
    nop,
)

regs = st.sampled_from(list(HostReg))
imm16s = st.integers(min_value=-0x8000, max_value=0x7FFF)
uimm16s = st.integers(min_value=0, max_value=0xFFFF)


class _DictPort:
    """Trivial data port over a dict, byte granular."""

    def __init__(self):
        self.mem = {}

    def load_u8(self, address):
        return self.mem.get(address, 0)

    def store_u8(self, address, value):
        self.mem[address] = value & 0xFF

    def load_u32(self, address):
        return int.from_bytes(bytes(self.load_u8(address + i) for i in range(4)), "little")

    def store_u32(self, address, value):
        for i, byte in enumerate((value & 0xFFFFFFFF).to_bytes(4, "little")):
            self.mem[address + i] = byte


def run_host(source: str, setup=None, base: int = 0x1000) -> HostInterpreter:
    instrs, _ = assemble_host(source, base=base)
    code = HostCodeSpace()
    code.write_block(base, instrs)
    interp = HostInterpreter(code, _DictPort())
    if setup:
        for reg, value in setup.items():
            interp[reg] = value
    interp.run_block(base)
    return interp


class TestEncodingRoundtrip:
    @given(op=st.sampled_from(sorted(R_TYPE_OPS, key=lambda o: o.value)), rd=regs, rs=regs, rt=regs)
    def test_r_type(self, op, rd, rs, rt):
        instr = HostInstr(op, rd=rd, rs=rs, rt=rt)
        decoded = decode_host_instruction(encode_host_instruction(instr))
        assert (decoded.op, decoded.rd, decoded.rs, decoded.rt) == (op, rd, rs, rt)

    @given(
        op=st.sampled_from([HostOp.SLL, HostOp.SRL, HostOp.SRA]),
        rd=regs,
        rt=regs,
        shamt=st.integers(min_value=0, max_value=31),
    )
    def test_shift_imm(self, op, rd, rt, shamt):
        instr = HostInstr(op, rd=rd, rt=rt, shamt=shamt)
        decoded = decode_host_instruction(encode_host_instruction(instr))
        assert (decoded.op, decoded.rd, decoded.rt, decoded.shamt) == (op, rd, rt, shamt)

    @given(op=st.sampled_from(sorted(I_ALU_OPS, key=lambda o: o.value)), rt=regs, rs=regs, imm=imm16s)
    def test_i_type(self, op, rt, rs, imm):
        if op in (HostOp.ANDI, HostOp.ORI, HostOp.XORI):
            imm &= 0xFFFF
        instr = HostInstr(op, rt=rt, rs=rs, imm=imm)
        decoded = decode_host_instruction(encode_host_instruction(instr))
        assert (decoded.op, decoded.rt, decoded.rs, decoded.imm) == (op, rt, rs, imm)

    @given(op=st.sampled_from(sorted(MEMORY_OPS, key=lambda o: o.value)), rt=regs, rs=regs, imm=imm16s)
    def test_memory_ops(self, op, rt, rs, imm):
        instr = HostInstr(op, rt=rt, rs=rs, imm=imm)
        decoded = decode_host_instruction(encode_host_instruction(instr))
        assert (decoded.op, decoded.rt, decoded.rs, decoded.imm) == (op, rt, rs, imm)

    @given(
        op=st.sampled_from(sorted(BRANCH2_OPS | BRANCH1_OPS, key=lambda o: o.value)),
        rs=regs,
        imm=imm16s,
    )
    def test_branches(self, op, rs, imm):
        instr = HostInstr(op, rs=rs, imm=imm)
        decoded = decode_host_instruction(encode_host_instruction(instr))
        assert (decoded.op, decoded.rs, decoded.imm) == (op, rs, imm)

    @given(
        op=st.sampled_from([HostOp.J, HostOp.JAL]),
        target=st.integers(min_value=0, max_value=0x0FFFFFFC // 4).map(lambda x: x * 4),
    )
    def test_jumps(self, op, target):
        instr = HostInstr(op, target=target)
        decoded = decode_host_instruction(encode_host_instruction(instr), address=0)
        assert decoded.target == target

    def test_exitb(self):
        for reason in ExitReason:
            instr = HostInstr(HostOp.EXITB, imm=int(reason))
            decoded = decode_host_instruction(encode_host_instruction(instr))
            assert decoded.op is HostOp.EXITB
            assert decoded.imm == int(reason)

    def test_lui_roundtrip(self):
        instr = HostInstr(HostOp.LUI, rt=HostReg.T0, imm=0xDEAD)
        decoded = decode_host_instruction(encode_host_instruction(instr))
        assert decoded.imm == 0xDEAD

    def test_imm_out_of_range_rejected(self):
        with pytest.raises(HostEncodeError):
            encode_host_instruction(HostInstr(HostOp.ADDIU, rt=HostReg.T0, imm=0x10000))
        with pytest.raises(HostEncodeError):
            encode_host_instruction(HostInstr(HostOp.ANDI, rt=HostReg.T0, imm=-1))

    def test_unknown_word_rejected(self):
        with pytest.raises(HostDecodeError):
            decode_host_instruction(0xFC000000 - 0x04000000)  # opcode 0x3E

    def test_nop_is_all_zero_word(self):
        assert encode_host_instruction(nop()) == 0


class TestInterpreterArithmetic:
    def test_add_sub(self):
        interp = run_host(
            """
            addiu $t0, $zero, 100
            addiu $t1, $zero, 42
            addu  $t2, $t0, $t1
            subu  $v0, $t0, $t1
            exitb branch
            """
        )
        assert interp[HostReg.T2] == 142
        assert interp[HostReg.V0] == 58

    def test_logic_and_shifts(self):
        interp = run_host(
            """
            addiu $t0, $zero, 0xF0
            ori   $t1, $t0, 0x0F
            sll   $t2, $t1, 8
            srl   $t3, $t2, 4
            xor   $v0, $t2, $t3
            exitb branch
            """
        )
        assert interp[HostReg.T1] == 0xFF
        assert interp[HostReg.T2] == 0xFF00
        assert interp[HostReg.T3] == 0x0FF0

    def test_lui_ori_builds_constant(self):
        interp = run_host("lui $t0, 0x1234\nori $v0, $t0, 0x5678\nexitb branch\n")
        assert interp[HostReg.V0] == 0x12345678

    def test_slt_signed_vs_unsigned(self):
        interp = run_host(
            """
            addiu $t0, $zero, -1
            addiu $t1, $zero, 1
            slt   $t2, $t0, $t1
            sltu  $t3, $t0, $t1
            exitb branch
            """
        )
        assert interp[HostReg.T2] == 1  # -1 < 1 signed
        assert interp[HostReg.T3] == 0  # 0xFFFFFFFF > 1 unsigned

    def test_mult_div_hilo(self):
        interp = run_host(
            """
            addiu $t0, $zero, 1000
            addiu $t1, $zero, 7
            multu $t0, $t0
            mflo  $t2            ; 1000000
            divu  $t2, $t1
            mflo  $t3            ; 142857
            mfhi  $t4            ; 1
            exitb branch
            """
        )
        assert interp[HostReg.T2] == 1_000_000
        assert interp[HostReg.T3] == 142_857
        assert interp[HostReg.T4] == 1

    def test_signed_division_truncates(self):
        interp = run_host(
            """
            addiu $t0, $zero, -100
            addiu $t1, $zero, 7
            div   $t0, $t1
            mflo  $t2
            mfhi  $t3
            exitb branch
            """
        )
        assert interp[HostReg.T2] == (-14) & 0xFFFFFFFF
        assert interp[HostReg.T3] == (-2) & 0xFFFFFFFF

    def test_divide_by_zero_faults(self):
        with pytest.raises(HostFault):
            run_host("divu $t0, $zero\nexitb branch\n")

    def test_zero_register_is_immutable(self):
        interp = run_host("addiu $zero, $zero, 5\naddu $v0, $zero, $zero\nexitb branch\n")
        assert interp[HostReg.V0] == 0


class TestInterpreterControlFlow:
    def test_loop(self):
        interp = run_host(
            """
            addiu $t0, $zero, 10
            addiu $v0, $zero, 0
            loop:
            addu  $v0, $v0, $t0
            addiu $t0, $t0, -1
            bne   $t0, $zero, loop
            exitb branch
            """
        )
        assert interp[HostReg.V0] == 55

    def test_branch_flavors(self):
        interp = run_host(
            """
            addiu $t0, $zero, -5
            bltz  $t0, neg
            addiu $v0, $zero, 1
            exitb branch
            neg:
            addiu $v0, $zero, 2
            bgez  $zero, done
            addiu $v0, $zero, 3
            done:
            exitb branch
            """
        )
        assert interp[HostReg.V0] == 2

    def test_jal_jr(self):
        interp = run_host(
            """
            jal   func
            addiu $v0, $t0, 1
            exitb branch
            func:
            addiu $t0, $zero, 41
            jr    $ra
            """,
            base=0x1000,
        )
        assert interp[HostReg.V0] == 42

    def test_exit_reports_reason_and_site(self):
        instrs, symbols = assemble_host("addiu $v0, $zero, 0x77\nexitb syscall\n", base=0x2000)
        code = HostCodeSpace()
        code.write_block(0x2000, instrs)
        interp = HostInterpreter(code, _DictPort())
        exit_info = interp.run_block(0x2000)
        assert isinstance(exit_info, BlockExit)
        assert exit_info.reason is ExitReason.SYSCALL
        assert exit_info.next_guest_pc == 0x77
        assert exit_info.exit_pc == 0x2004
        assert exit_info.instructions == 2

    def test_chained_jump_between_blocks(self):
        code = HostCodeSpace()
        a, _ = assemble_host("addiu $t0, $zero, 5\nj 0x3000\n", base=0x2000)
        b, _ = assemble_host("addiu $v0, $t0, 1\nexitb branch\n", base=0x3000)
        code.write_block(0x2000, a)
        code.write_block(0x3000, b)
        interp = HostInterpreter(code, _DictPort())
        exit_info = interp.run_block(0x2000)
        assert exit_info.next_guest_pc == 6
        assert exit_info.instructions == 4

    def test_runaway_budget(self):
        instrs, _ = assemble_host("loop: j loop\n", base=0x1000)
        code = HostCodeSpace()
        code.write_block(0x1000, instrs)
        interp = HostInterpreter(code, _DictPort())
        with pytest.raises(HostFault, match="exceeded 1000 host instructions"):
            interp.run_block(0x1000, max_instructions=1_000)

    def test_fetch_outside_code_faults(self):
        code = HostCodeSpace()
        interp = HostInterpreter(code, _DictPort())
        with pytest.raises(HostFault):
            interp.run_block(0x4000)


class TestInterpreterMemory:
    def test_store_load_roundtrip(self):
        interp = run_host(
            """
            lui   $t0, 0x1000
            addiu $t1, $zero, 0x1234
            sw    $t1, 8($t0)
            lw    $v0, 8($t0)
            sb    $t1, 1($t0)
            lbu   $t2, 1($t0)
            exitb branch
            """
        )
        assert interp[HostReg.V0] == 0x1234
        assert interp[HostReg.T2] == 0x34

    def test_lb_sign_extends(self):
        interp = run_host(
            """
            addiu $t1, $zero, 0xFF
            sb    $t1, 0($zero)
            lb    $v0, 0($zero)
            lbu   $v1, 0($zero)
            exitb branch
            """
        )
        assert interp[HostReg.V0] == 0xFFFFFFFF
        assert interp[HostReg.V1] == 0xFF


class TestCodeSpace:
    def test_patch_replaces_instruction(self):
        code = HostCodeSpace()
        instrs, _ = assemble_host("addiu $v0, $zero, 1\nexitb branch\n", base=0)
        code.write_block(0, instrs)
        code.patch(0, HostInstr(HostOp.ADDIU, rt=HostReg.V0, rs=HostReg.ZERO, imm=9))
        interp = HostInterpreter(code, _DictPort())
        assert interp.run_block(0).next_guest_pc == 9

    def test_patch_empty_slot_rejected(self):
        with pytest.raises(ValueError):
            HostCodeSpace().patch(0x100, nop())

    def test_erase(self):
        code = HostCodeSpace()
        code.write_block(0, [nop(), nop()])
        assert code.size_bytes == 8
        code.erase(0, 8)
        assert code.size_bytes == 0
        assert code.fetch(0) is None

    def test_unaligned_block_rejected(self):
        with pytest.raises(ValueError):
            HostCodeSpace().write_block(2, [nop()])


class TestHostAssembler:
    def test_pseudo_ops(self):
        interp = run_host("li $t0, 7\nmove $v0, $t0\nexitb branch\n")
        assert interp[HostReg.V0] == 7

    def test_li_range_checked(self):
        with pytest.raises(HostAssemblyError):
            assemble_host("li $t0, 0x10000\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(HostAssemblyError):
            assemble_host("bogus $t0\n")

    def test_unknown_register(self):
        with pytest.raises(HostAssemblyError):
            assemble_host("addu $t0, $qq, $t1\n")

    def test_numeric_register_aliases(self):
        instrs, _ = assemble_host("addu $2, $8, $9\n")
        assert instrs[0].rd is HostReg.V0
        assert instrs[0].rs is HostReg.T0
