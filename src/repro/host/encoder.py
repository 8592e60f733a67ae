"""R32 binary encoder: :class:`HostInstr` -> 32-bit words.

The encodings follow MIPS-I where an equivalent exists; ``EXITB`` takes
the reserved primary opcode 0x3F with the exit reason in the immediate
field.
"""

from __future__ import annotations

from repro.host.isa import HostInstr, HostOp


class HostEncodeError(Exception):
    """Raised when an instruction has out-of-range fields."""


_SPECIAL = 0x00
_REGIMM = 0x01

#: funct codes for SPECIAL-encoded ops.
FUNCT_CODES = {
    HostOp.SLL: 0x00,
    HostOp.SRL: 0x02,
    HostOp.SRA: 0x03,
    HostOp.SLLV: 0x04,
    HostOp.SRLV: 0x06,
    HostOp.SRAV: 0x07,
    HostOp.JR: 0x08,
    HostOp.JALR: 0x09,
    HostOp.MFHI: 0x10,
    HostOp.MFLO: 0x12,
    HostOp.MULT: 0x18,
    HostOp.MULTU: 0x19,
    HostOp.DIV: 0x1A,
    HostOp.DIVU: 0x1B,
    HostOp.ADDU: 0x21,
    HostOp.SUBU: 0x23,
    HostOp.AND: 0x24,
    HostOp.OR: 0x25,
    HostOp.XOR: 0x26,
    HostOp.NOR: 0x27,
    HostOp.SLT: 0x2A,
    HostOp.SLTU: 0x2B,
}

#: primary opcodes for I/J-encoded ops.
PRIMARY_CODES = {
    HostOp.J: 0x02,
    HostOp.JAL: 0x03,
    HostOp.BEQ: 0x04,
    HostOp.BNE: 0x05,
    HostOp.BLEZ: 0x06,
    HostOp.BGTZ: 0x07,
    HostOp.ADDIU: 0x09,
    HostOp.SLTI: 0x0A,
    HostOp.SLTIU: 0x0B,
    HostOp.ANDI: 0x0C,
    HostOp.ORI: 0x0D,
    HostOp.XORI: 0x0E,
    HostOp.LUI: 0x0F,
    HostOp.LB: 0x20,
    HostOp.LW: 0x23,
    HostOp.LBU: 0x24,
    HostOp.SB: 0x28,
    HostOp.SW: 0x2B,
    HostOp.EXITB: 0x3F,
}

#: REGIMM rt selectors.
REGIMM_CODES = {HostOp.BLTZ: 0x00, HostOp.BGEZ: 0x01}

#: ops whose 16-bit immediate is zero-extended (the rest sign-extend).
ZERO_EXTEND_IMM_OPS = frozenset({HostOp.ANDI, HostOp.ORI, HostOp.XORI})


def _check_imm16(instr: HostInstr) -> int:
    imm = instr.imm
    if instr.op in ZERO_EXTEND_IMM_OPS or instr.op is HostOp.LUI or instr.op is HostOp.EXITB:
        if not 0 <= imm <= 0xFFFF:
            raise HostEncodeError(f"immediate {imm} out of unsigned 16-bit range: {instr}")
        return imm
    if not -0x8000 <= imm <= 0x7FFF:
        raise HostEncodeError(f"immediate {imm} out of signed 16-bit range: {instr}")
    return imm & 0xFFFF


def encode_host_instruction(instr: HostInstr) -> int:
    """Encode one instruction into its 32-bit word."""
    op = instr.op
    funct = FUNCT_CODES.get(op)
    if funct is not None:
        if op in (HostOp.SLL, HostOp.SRL, HostOp.SRA):
            if not 0 <= instr.shamt <= 31:
                raise HostEncodeError(f"shamt {instr.shamt} out of range")
            return (int(instr.rt) << 16) | (int(instr.rd) << 11) | (instr.shamt << 6) | funct
        return (
            (int(instr.rs) << 21)
            | (int(instr.rt) << 16)
            | (int(instr.rd) << 11)
            | funct
        )
    regimm = REGIMM_CODES.get(op)
    if regimm is not None:
        imm = _check_imm16(instr)
        return (_REGIMM << 26) | (int(instr.rs) << 21) | (regimm << 16) | imm
    primary = PRIMARY_CODES.get(op)
    if primary is None:
        raise HostEncodeError(f"cannot encode {op!r}")
    if op in (HostOp.J, HostOp.JAL):
        if instr.target & 3:
            raise HostEncodeError(f"jump target {instr.target:#x} not word aligned")
        index = (instr.target >> 2) & 0x03FFFFFF
        return (primary << 26) | index
    imm = _check_imm16(instr)
    return (primary << 26) | (int(instr.rs) << 21) | (int(instr.rt) << 16) | imm
