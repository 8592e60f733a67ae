"""VX86 instruction-set model.

Defines the architectural registers, condition codes, operand forms and
the :class:`Instruction` record shared by the encoder, decoder,
assembler, interpreter and the translator frontend.

The binary format (see :mod:`repro.guest.encoder`) is variable length:

``[0x66 byte-width prefix] [0x0F escape] opcode [ModRM] [SIB] [disp] [imm]``

giving instructions of 1 to 9 bytes, in the spirit of IA-32.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union


class Register(enum.IntEnum):
    """The eight 32-bit architectural registers (x86 order)."""
    __hash__ = int.__hash__  # dict-key hot path; Enum hashes the *name*

    EAX = 0
    ECX = 1
    EDX = 2
    EBX = 3
    ESP = 4
    EBP = 5
    ESI = 6
    EDI = 7


#: Parse table from textual register names.
REGISTER_NAMES = {reg.name.lower(): reg for reg in Register}


class Flag(enum.IntEnum):
    """Bit positions of the condition codes inside the packed flags word.

    The positions match IA-32 EFLAGS so dumps read familiarly.
    """

    __hash__ = int.__hash__

    CF = 0
    PF = 2
    ZF = 6
    SF = 7
    OF = 11


#: All architecturally visible flags, in canonical order.
ALL_FLAGS: Tuple[Flag, ...] = (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF)

#: Bit mask covering every defined flag.
FLAGS_MASK = sum(1 << flag for flag in ALL_FLAGS)


class ConditionCode(enum.IntEnum):
    """The sixteen IA-32 condition codes used by Jcc and SETcc."""
    __hash__ = int.__hash__

    O = 0
    NO = 1
    B = 2
    AE = 3
    E = 4
    NE = 5
    BE = 6
    A = 7
    S = 8
    NS = 9
    P = 10
    NP = 11
    L = 12
    GE = 13
    LE = 14
    G = 15


#: Textual aliases accepted by the assembler (jz == je, etc.).
CONDITION_ALIASES = {
    "o": ConditionCode.O,
    "no": ConditionCode.NO,
    "b": ConditionCode.B,
    "c": ConditionCode.B,
    "nae": ConditionCode.B,
    "ae": ConditionCode.AE,
    "nb": ConditionCode.AE,
    "nc": ConditionCode.AE,
    "e": ConditionCode.E,
    "z": ConditionCode.E,
    "ne": ConditionCode.NE,
    "nz": ConditionCode.NE,
    "be": ConditionCode.BE,
    "na": ConditionCode.BE,
    "a": ConditionCode.A,
    "nbe": ConditionCode.A,
    "s": ConditionCode.S,
    "ns": ConditionCode.NS,
    "p": ConditionCode.P,
    "pe": ConditionCode.P,
    "np": ConditionCode.NP,
    "po": ConditionCode.NP,
    "l": ConditionCode.L,
    "nge": ConditionCode.L,
    "ge": ConditionCode.GE,
    "nl": ConditionCode.GE,
    "le": ConditionCode.LE,
    "ng": ConditionCode.LE,
    "g": ConditionCode.G,
    "nle": ConditionCode.G,
}

#: Which flags each condition code reads (used by dead-flag analysis).
CONDITION_FLAG_USES = {
    ConditionCode.O: (Flag.OF,),
    ConditionCode.NO: (Flag.OF,),
    ConditionCode.B: (Flag.CF,),
    ConditionCode.AE: (Flag.CF,),
    ConditionCode.E: (Flag.ZF,),
    ConditionCode.NE: (Flag.ZF,),
    ConditionCode.BE: (Flag.CF, Flag.ZF),
    ConditionCode.A: (Flag.CF, Flag.ZF),
    ConditionCode.S: (Flag.SF,),
    ConditionCode.NS: (Flag.SF,),
    ConditionCode.P: (Flag.PF,),
    ConditionCode.NP: (Flag.PF,),
    ConditionCode.L: (Flag.SF, Flag.OF),
    ConditionCode.GE: (Flag.SF, Flag.OF),
    ConditionCode.LE: (Flag.ZF, Flag.SF, Flag.OF),
    ConditionCode.G: (Flag.ZF, Flag.SF, Flag.OF),
}


class Op(enum.Enum):
    """Semantic opcodes of VX86 (post-decode, width carried separately)."""
    __hash__ = object.__hash__  # interpreter dispatch key; identity == equality

    # two-operand ALU group (dst, src); CMP/TEST write only flags
    ADD = "add"
    OR = "or"
    AND = "and"
    SUB = "sub"
    XOR = "xor"
    CMP = "cmp"
    TEST = "test"
    MOV = "mov"
    # shift group (dst, count)
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    # one-operand group
    INC = "inc"
    DEC = "dec"
    NEG = "neg"
    NOT = "not"
    # multiply/divide
    IMUL = "imul"  # imul r32, r/m32 (truncating two-operand form)
    MUL = "mul"  # EDX:EAX = EAX * r/m32 (unsigned widening)
    DIV = "div"  # EAX, EDX = divmod(EDX:EAX, r/m32) (unsigned)
    IDIV = "idiv"  # signed division of EDX:EAX
    # data movement / address arithmetic
    LEA = "lea"
    MOVZX = "movzx"  # r32 <- zero-extended r/m8
    MOVSX = "movsx"  # r32 <- sign-extended r/m8
    XCHG = "xchg"
    CDQ = "cdq"  # EDX = sign of EAX
    PUSH = "push"
    POP = "pop"
    # control flow
    JCC = "jcc"
    JMP = "jmp"
    CALL = "call"
    RET = "ret"
    INT = "int"
    SETCC = "setcc"
    # misc
    NOP = "nop"
    HLT = "hlt"


#: ALU group order used by the compact 0x00-0x1F opcode block.
ALU_GROUP: Tuple[Op, ...] = (Op.ADD, Op.OR, Op.AND, Op.SUB, Op.XOR, Op.CMP, Op.TEST, Op.MOV)

#: Shift group order used by the 0x20-0x25 opcode block.
SHIFT_GROUP: Tuple[Op, ...] = (Op.SHL, Op.SHR, Op.SAR)

#: Ops whose two-operand forms may take a byte-width (0x66) prefix.
BYTE_CAPABLE_OPS = frozenset(ALU_GROUP)


@dataclass(frozen=True)
class RegisterOperand:
    """A direct register operand."""

    reg: Register

    def __str__(self) -> str:
        return self.reg.name.lower()


@dataclass(frozen=True)
class MemoryOperand:
    """A ``[base + index*scale + disp]`` effective address.

    ``base`` and ``index`` are optional; ``scale`` is 1, 2, 4 or 8.
    ``disp`` is a signed 32-bit displacement.
    """

    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1
    disp: int = 0

    def __post_init__(self) -> None:
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale {self.scale}")
        if self.index is Register.ESP:
            raise ValueError("ESP cannot be an index register")
        if self.index is None and self.scale != 1:
            # Scale is meaningless without an index; canonicalize so that
            # encode/decode round-trips compare equal.
            object.__setattr__(self, "scale", 1)

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(self.base.name.lower())
        if self.index is not None:
            term = self.index.name.lower()
            if self.scale != 1:
                term += f"*{self.scale}"
            parts.append(term)
        if self.disp or not parts:
            parts.append(f"{self.disp:#x}" if self.disp >= 0 else f"-{-self.disp:#x}")
        return "[" + " + ".join(parts) + "]"


@dataclass(frozen=True)
class Immediate:
    """An immediate operand (stored as a signed Python int)."""

    value: int

    def __str__(self) -> str:
        return f"{self.value:#x}" if self.value >= 0 else f"-{-self.value:#x}"


Operand = Union[RegisterOperand, MemoryOperand, Immediate]


@dataclass
class Instruction:
    """One decoded VX86 instruction.

    ``address`` and ``length`` are filled by the decoder (the encoder
    ignores them); branch targets for direct control flow are stored as
    absolute guest addresses in ``target``.
    """

    op: Op
    width: int = 32  # 8 or 32
    dst: Optional[Operand] = None
    src: Optional[Operand] = None
    cc: Optional[ConditionCode] = None
    target: Optional[int] = None  # absolute target for direct JMP/JCC/CALL
    imm: Optional[int] = None  # INT vector / RET pop amount
    address: int = 0
    length: int = 0

    def __post_init__(self) -> None:
        if self.width not in (8, 32):
            raise ValueError(f"invalid operand width {self.width}")

    @property
    def next_address(self) -> int:
        """Address of the following instruction (fall-through)."""
        return self.address + self.length

    @property
    def ends_block(self) -> bool:
        """True when a basic block must end after this instruction."""
        return self.op in _BLOCK_ENDERS

    @property
    def is_indirect_branch(self) -> bool:
        """JMP/CALL through a register or memory operand, or RET."""
        if self.op is Op.RET:
            return True
        if self.op in (Op.JMP, Op.CALL):
            return self.target is None
        return False

    def reads_memory(self) -> bool:
        """True when executing this instruction loads from memory."""
        if self.op in (Op.LEA, Op.NOP, Op.HLT, Op.CDQ, Op.JCC, Op.JMP, Op.CALL):
            if self.op in (Op.JMP, Op.CALL) and isinstance(self.dst, MemoryOperand):
                return True
            return False
        if self.op is Op.POP or self.op is Op.RET:
            return True
        if self.op is Op.MOV:
            return isinstance(self.src, MemoryOperand)
        for operand in (self.dst, self.src):
            if isinstance(operand, MemoryOperand):
                return True
        return False

    def writes_memory(self) -> bool:
        """True when executing this instruction stores to memory."""
        if self.op in (Op.PUSH, Op.CALL):
            return True
        if self.op in (Op.CMP, Op.TEST, Op.LEA, Op.JCC, Op.JMP, Op.RET):
            return False
        return isinstance(self.dst, MemoryOperand)

    def __str__(self) -> str:
        mnemonic = self.op.value
        if self.op is Op.JCC:
            mnemonic = f"j{self.cc.name.lower()}"
        elif self.op is Op.SETCC:
            mnemonic = f"set{self.cc.name.lower()}"
        if self.width == 8 and self.op in BYTE_CAPABLE_OPS:
            mnemonic += "b"
        parts = [mnemonic]
        operands = []
        if self.target is not None:
            operands.append(f"{self.target:#x}")
        else:
            if self.dst is not None:
                operands.append(str(self.dst))
            if self.src is not None:
                operands.append(str(self.src))
        if self.imm is not None and self.op in (Op.INT, Op.RET):
            operands.append(f"{self.imm:#x}")
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)


_BLOCK_ENDERS = frozenset({Op.JCC, Op.JMP, Op.CALL, Op.RET, Op.INT, Op.HLT})


def flags_written(instr: Instruction) -> Tuple[Flag, ...]:
    """The set of flags an instruction defines (VX86 semantics).

    VX86 pins down every case IA-32 leaves undefined so that the
    reference interpreter and the translator can be compared bit-exactly.
    """
    op = instr.op
    if op in (Op.ADD, Op.SUB, Op.CMP, Op.NEG):
        return ALL_FLAGS
    if op in (Op.AND, Op.OR, Op.XOR, Op.TEST):
        return ALL_FLAGS
    if op in (Op.INC, Op.DEC):
        return (Flag.PF, Flag.ZF, Flag.SF, Flag.OF)  # CF preserved, as on IA-32
    if op in (Op.SHL, Op.SHR, Op.SAR):
        # A zero shift count leaves flags untouched at runtime; statically
        # we must assume they may be written.
        return ALL_FLAGS
    if op in (Op.IMUL, Op.MUL):
        return ALL_FLAGS
    return ()


def flags_read(instr: Instruction) -> Tuple[Flag, ...]:
    """The set of flags an instruction uses."""
    if instr.op in (Op.JCC, Op.SETCC):
        return CONDITION_FLAG_USES[instr.cc]
    return ()
