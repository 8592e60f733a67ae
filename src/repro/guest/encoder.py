"""VX86 binary encoder.

Produces the variable-length machine encoding consumed by
:mod:`repro.guest.decoder`.  The format deliberately mirrors IA-32's
structure::

    [0x66 width prefix] [0xA0 escape] opcode [ModRM] [SIB] [disp8/32] [imm]

Opcode map (primary page):

========  =====================================================
0x00-1F   two-operand ALU block: ``0x00 + alu*4 + form``
          alu   = ADD, OR, AND, SUB, XOR, CMP, TEST, MOV
          form  = 0: rm<-reg  1: reg<-rm  2: rm<-imm32  3: rm<-imm8(se)
0x20-25   shift block: ``0x20 + shift*2 + form``
          shift = SHL, SHR, SAR;  form = 0: imm8 count, 1: CL count
0x30-3C   INC DEC NEG NOT IMUL MUL DIV IDIV LEA MOVZX MOVSX XCHG CDQ
0x40+r    PUSH reg            0x48+r  POP reg
0x50      PUSH imm32          0x51    PUSH rm      0x52  POP rm
0x70+cc   Jcc rel8            0x90    NOP
0xB8+r    MOV reg, imm32
0xC2      RET imm16           0xC3    RET
0xCD      INT imm8
0xE8      CALL rel32          0xE9    JMP rel32    0xEB  JMP rel8
0xF4      HLT
0xFF /2   CALL rm             0xFF /4 JMP rm
========  =====================================================

Escape page (after 0xA0): ``0x80+cc`` Jcc rel32, ``0x90+cc`` SETcc rm8.
"""

from __future__ import annotations

from typing import Optional

from repro.common.bitops import u32
from repro.guest.isa import (
    ALU_GROUP,
    SHIFT_GROUP,
    Immediate,
    Instruction,
    MemoryOperand,
    Op,
    Operand,
    Register,
    RegisterOperand,
)

PREFIX_BYTE_WIDTH = 0x66
PREFIX_ESCAPE = 0xA0

_ALU_INDEX = {op: i for i, op in enumerate(ALU_GROUP)}
_SHIFT_INDEX = {op: i for i, op in enumerate(SHIFT_GROUP)}

_ONE_OPERAND_OPCODES = {
    Op.INC: 0x30,
    Op.DEC: 0x31,
    Op.NEG: 0x32,
    Op.NOT: 0x33,
}


class EncodeError(Exception):
    """Raised when an :class:`Instruction` cannot be encoded."""


def _fits_i8(value: int) -> bool:
    return -128 <= value <= 127


def _encode_modrm(reg_field: int, rm: Operand) -> bytes:
    """Encode the ModRM (+SIB, +displacement) bytes for operand ``rm``."""
    if isinstance(rm, RegisterOperand):
        return bytes([(3 << 6) | (reg_field << 3) | int(rm.reg)])
    if not isinstance(rm, MemoryOperand):
        raise EncodeError(f"operand {rm!r} cannot be encoded as r/m")
    base, index, scale, disp = rm.base, rm.index, rm.scale, rm.disp

    if base is None and index is None:
        # absolute disp32: mod=0, rm=5
        return bytes([(0 << 6) | (reg_field << 3) | 5]) + u32(disp).to_bytes(4, "little")

    needs_sib = index is not None or base is Register.ESP or base is None
    if base is None:
        # index-only: SIB with base=5 under mod=0 means disp32 + index
        sib = ((scale.bit_length() - 1) << 6) | (int(index) << 3) | 5
        return (
            bytes([(0 << 6) | (reg_field << 3) | 4, sib])
            + u32(disp).to_bytes(4, "little")
        )

    if disp == 0 and base is not Register.EBP:
        mod, disp_bytes = 0, b""
    elif _fits_i8(disp):
        mod, disp_bytes = 1, (disp & 0xFF).to_bytes(1, "little")
    else:
        mod, disp_bytes = 2, u32(disp).to_bytes(4, "little")

    if needs_sib:
        index_field = 4 if index is None else int(index)
        sib = ((scale.bit_length() - 1) << 6) | (index_field << 3) | int(base)
        return bytes([(mod << 6) | (reg_field << 3) | 4, sib]) + disp_bytes
    return bytes([(mod << 6) | (reg_field << 3) | int(base)]) + disp_bytes


def _imm32(value: int) -> bytes:
    return u32(value).to_bytes(4, "little")


def _require_reg(operand: Optional[Operand], what: str) -> Register:
    if not isinstance(operand, RegisterOperand):
        raise EncodeError(f"{what} must be a register, got {operand!r}")
    return operand.reg


def _encode_alu(instr: Instruction) -> bytes:
    base = _ALU_INDEX[instr.op] * 4
    prefix = bytes([PREFIX_BYTE_WIDTH]) if instr.width == 8 else b""
    dst, src = instr.dst, instr.src
    if isinstance(src, RegisterOperand) and isinstance(dst, (RegisterOperand, MemoryOperand)):
        # Prefer reg<-rm when dst is a register so loads round-trip naturally,
        # but rm<-reg handles the store direction.
        if isinstance(dst, MemoryOperand):
            return prefix + bytes([base + 0]) + _encode_modrm(int(src.reg), dst)
        return prefix + bytes([base + 1]) + _encode_modrm(int(dst.reg), src)
    if isinstance(src, (MemoryOperand,)) and isinstance(dst, RegisterOperand):
        return prefix + bytes([base + 1]) + _encode_modrm(int(dst.reg), src)
    if isinstance(src, Immediate):
        if instr.width == 32 and _fits_i8(src.value):
            return (
                prefix
                + bytes([base + 3])
                + _encode_modrm(0, dst)
                + (src.value & 0xFF).to_bytes(1, "little")
            )
        if instr.width == 8:
            if not -128 <= src.value <= 255:
                raise EncodeError(f"immediate {src.value} out of byte range")
            return (
                prefix
                + bytes([base + 3])
                + _encode_modrm(0, dst)
                + (src.value & 0xFF).to_bytes(1, "little")
            )
        return prefix + bytes([base + 2]) + _encode_modrm(0, dst) + _imm32(src.value)
    raise EncodeError(f"unsupported ALU operand combination: {instr}")


def _encode_shift(instr: Instruction) -> bytes:
    base = 0x20 + _SHIFT_INDEX[instr.op] * 2
    if isinstance(instr.src, Immediate):
        count = instr.src.value
        if not 0 <= count <= 31:
            raise EncodeError(f"shift count {count} out of range")
        return bytes([base]) + _encode_modrm(0, instr.dst) + bytes([count])
    if isinstance(instr.src, RegisterOperand) and instr.src.reg is Register.ECX:
        return bytes([base + 1]) + _encode_modrm(0, instr.dst)
    raise EncodeError("shift count must be imm8 or CL (ECX)")


def encode_instruction(instr: Instruction, allow_short: bool = True) -> bytes:
    """Encode one instruction; raises :class:`EncodeError` on bad forms.

    ``allow_short`` enables rel8 branch forms when the displacement fits
    and the instruction address is known.  The assembler passes
    ``False`` so that branch sizes stay fixed across its layout passes
    (no branch relaxation).
    """
    op = instr.op

    if op in _ALU_INDEX:
        return _encode_alu(instr)
    if op in _SHIFT_INDEX:
        return _encode_shift(instr)
    if op in _ONE_OPERAND_OPCODES:
        return bytes([_ONE_OPERAND_OPCODES[op]]) + _encode_modrm(0, instr.dst)
    if op is Op.IMUL:
        reg = _require_reg(instr.dst, "imul destination")
        return bytes([0x34]) + _encode_modrm(int(reg), instr.src)
    if op in (Op.MUL, Op.DIV, Op.IDIV):
        opcode = {Op.MUL: 0x35, Op.DIV: 0x36, Op.IDIV: 0x37}[op]
        return bytes([opcode]) + _encode_modrm(0, instr.src)
    if op is Op.LEA:
        reg = _require_reg(instr.dst, "lea destination")
        if not isinstance(instr.src, MemoryOperand):
            raise EncodeError("lea source must be a memory operand")
        return bytes([0x38]) + _encode_modrm(int(reg), instr.src)
    if op in (Op.MOVZX, Op.MOVSX):
        reg = _require_reg(instr.dst, f"{op.value} destination")
        opcode = 0x39 if op is Op.MOVZX else 0x3A
        return bytes([opcode]) + _encode_modrm(int(reg), instr.src)
    if op is Op.XCHG:
        reg = _require_reg(instr.dst, "xchg first operand")
        return bytes([0x3B]) + _encode_modrm(int(reg), instr.src)
    if op is Op.CDQ:
        return bytes([0x3C])
    if op is Op.PUSH:
        if isinstance(instr.dst, RegisterOperand):
            return bytes([0x40 + int(instr.dst.reg)])
        if isinstance(instr.dst, Immediate):
            return bytes([0x50]) + _imm32(instr.dst.value)
        return bytes([0x51]) + _encode_modrm(0, instr.dst)
    if op is Op.POP:
        if isinstance(instr.dst, RegisterOperand):
            return bytes([0x48 + int(instr.dst.reg)])
        return bytes([0x52]) + _encode_modrm(0, instr.dst)
    if op is Op.MOV and isinstance(instr.src, Immediate) and isinstance(instr.dst, RegisterOperand):
        # handled above by the ALU path normally; kept for completeness
        return bytes([0xB8 + int(instr.dst.reg)]) + _imm32(instr.src.value)
    if op is Op.JCC:
        if instr.target is None:
            raise EncodeError("jcc requires a resolved target")
        rel32 = instr.target - (instr.address + 6)
        rel8 = instr.target - (instr.address + 2)
        if allow_short and instr.address and _fits_i8(rel8):
            return bytes([0x70 + int(instr.cc), rel8 & 0xFF])
        return bytes([PREFIX_ESCAPE, 0x80 + int(instr.cc)]) + _imm32(rel32)
    if op is Op.SETCC:
        return bytes([PREFIX_ESCAPE, 0x90 + int(instr.cc)]) + _encode_modrm(0, instr.dst)
    if op is Op.JMP:
        if instr.target is not None:
            rel8 = instr.target - (instr.address + 2)
            if allow_short and instr.address and _fits_i8(rel8):
                return bytes([0xEB, rel8 & 0xFF])
            rel32 = instr.target - (instr.address + 5)
            return bytes([0xE9]) + _imm32(rel32)
        return bytes([0xFF]) + _encode_modrm(4, instr.dst)
    if op is Op.CALL:
        if instr.target is not None:
            rel32 = instr.target - (instr.address + 5)
            return bytes([0xE8]) + _imm32(rel32)
        return bytes([0xFF]) + _encode_modrm(2, instr.dst)
    if op is Op.RET:
        if instr.imm:
            return bytes([0xC2]) + (instr.imm & 0xFFFF).to_bytes(2, "little")
        return bytes([0xC3])
    if op is Op.INT:
        if instr.imm is None:
            raise EncodeError("int requires a vector number")
        return bytes([0xCD, instr.imm & 0xFF])
    if op is Op.NOP:
        return bytes([0x90])
    if op is Op.HLT:
        return bytes([0xF4])
    raise EncodeError(f"cannot encode op {op!r}")
