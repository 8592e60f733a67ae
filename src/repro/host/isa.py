"""R32 host instruction-set model.

Instruction categories follow MIPS-I conventions:

* R-type three-register ALU ops plus HI/LO multiply/divide
* I-type immediate ALU ops, loads/stores, and branches
* J-type absolute-region jumps
* ``EXITB`` — the reserved opcode translated blocks use to return
  control to the emulator runtime (exit reason in the immediate field,
  next guest PC in ``$v0``)

Register usage convention of the translator (fixed by
:mod:`repro.dbt.codegen`): guest EAX..EDI are *pinned* in ``$s0..$s7``
for the whole program, the packed guest flags word lives in ``$t8``,
``$v0`` carries the next guest PC at block exits, and ``$t0..$t7`` are
block-local temporaries.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, Optional, Tuple


class HostReg(enum.IntEnum):
    """The 32 host registers with MIPS ABI names."""
    __hash__ = int.__hash__  # dict-key hot path; Enum hashes the *name*

    ZERO = 0
    AT = 1
    V0 = 2
    V1 = 3
    A0 = 4
    A1 = 5
    A2 = 6
    A3 = 7
    T0 = 8
    T1 = 9
    T2 = 10
    T3 = 11
    T4 = 12
    T5 = 13
    T6 = 14
    T7 = 15
    S0 = 16
    S1 = 17
    S2 = 18
    S3 = 19
    S4 = 20
    S5 = 21
    S6 = 22
    S7 = 23
    T8 = 24
    T9 = 25
    K0 = 26
    K1 = 27
    GP = 28
    SP = 29
    FP = 30
    RA = 31


#: Assembler names, including numeric aliases.
HOST_REGISTER_NAMES = {f"${reg.name.lower()}": reg for reg in HostReg}
HOST_REGISTER_NAMES.update({f"${int(reg)}": reg for reg in HostReg})

#: Guest register file pinning: EAX..EDI -> $s0..$s7.
GUEST_REG_HOME: Tuple[HostReg, ...] = (
    HostReg.S0,
    HostReg.S1,
    HostReg.S2,
    HostReg.S3,
    HostReg.S4,
    HostReg.S5,
    HostReg.S6,
    HostReg.S7,
)

#: Home of the packed guest flags word.
FLAGS_HOME = HostReg.T8

#: Registers the code generator may use as block-local temporaries.
TEMP_REGS: Tuple[HostReg, ...] = (
    HostReg.T0,
    HostReg.T1,
    HostReg.T2,
    HostReg.T3,
    HostReg.T4,
    HostReg.T5,
    HostReg.T6,
    HostReg.T7,
    HostReg.T9,
    HostReg.V1,
    HostReg.A0,
    HostReg.A1,
    HostReg.A2,
    HostReg.A3,
)


class HostOp(enum.Enum):
    """Semantic host opcodes."""
    __hash__ = object.__hash__  # scheduler/cost dict key; identity == equality

    # R-type ALU
    ADDU = "addu"
    SUBU = "subu"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLT = "slt"
    SLTU = "sltu"
    SLLV = "sllv"
    SRLV = "srlv"
    SRAV = "srav"
    # shifts by immediate
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    # HI/LO unit
    MULT = "mult"
    MULTU = "multu"
    DIV = "div"
    DIVU = "divu"
    MFHI = "mfhi"
    MFLO = "mflo"
    # I-type ALU
    ADDIU = "addiu"
    SLTI = "slti"
    SLTIU = "sltiu"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    LUI = "lui"
    # memory
    LW = "lw"
    LB = "lb"
    LBU = "lbu"
    SW = "sw"
    SB = "sb"
    # branches (no delay slots in R32)
    BEQ = "beq"
    BNE = "bne"
    BLEZ = "blez"
    BGTZ = "bgtz"
    BLTZ = "bltz"
    BGEZ = "bgez"
    # jumps
    J = "j"
    JAL = "jal"
    JR = "jr"
    JALR = "jalr"
    # runtime handoff
    EXITB = "exitb"


class ExitReason(enum.IntEnum):
    """Why a translated block handed control back to the runtime.

    Encoded in the immediate field of ``EXITB``.
    """

    __hash__ = int.__hash__

    BRANCH = 0  # next guest PC in $v0 (chainable for direct targets)
    SYSCALL = 1  # guest INT 0x80; $v0 holds the *resume* guest PC
    HALT = 2  # guest HLT
    FAULT = 3  # translator-detected guest fault


#: Ops laid out as R-type (rd, rs, rt).
R_TYPE_OPS = frozenset(
    {
        HostOp.ADDU,
        HostOp.SUBU,
        HostOp.AND,
        HostOp.OR,
        HostOp.XOR,
        HostOp.NOR,
        HostOp.SLT,
        HostOp.SLTU,
        HostOp.SLLV,
        HostOp.SRLV,
        HostOp.SRAV,
    }
)

#: I-type ALU ops (rt, rs, imm).
I_ALU_OPS = frozenset(
    {HostOp.ADDIU, HostOp.SLTI, HostOp.SLTIU, HostOp.ANDI, HostOp.ORI, HostOp.XORI}
)

#: Loads and stores (rt, offset(rs)).
MEMORY_OPS = frozenset({HostOp.LW, HostOp.LB, HostOp.LBU, HostOp.SW, HostOp.SB})

LOAD_OPS = frozenset({HostOp.LW, HostOp.LB, HostOp.LBU})
STORE_OPS = frozenset({HostOp.SW, HostOp.SB})

#: Branch ops comparing against a second register.
BRANCH2_OPS = frozenset({HostOp.BEQ, HostOp.BNE})

#: Branch ops comparing one register against zero.
BRANCH1_OPS = frozenset({HostOp.BLEZ, HostOp.BGTZ, HostOp.BLTZ, HostOp.BGEZ})

CONTROL_OPS = (
    BRANCH2_OPS | BRANCH1_OPS | {HostOp.J, HostOp.JAL, HostOp.JR, HostOp.JALR, HostOp.EXITB}
)


#: ``slots=True`` needs Python 3.10; on 3.9 instances keep a ``__dict__``.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class HostInstr:
    """One host instruction: an immutable value.

    Instructions never change after construction — a branch whose
    offset is resolved later is rebuilt, not patched — so equal
    instructions are interchangeable.  The code generator relies on
    that: it interns every instruction it emits, so equal instructions
    across all the blocks one translator produces are one shared object.

    Field usage by category:

    * R-type: ``rd``, ``rs``, ``rt``
    * shift-by-immediate: ``rd``, ``rt``, ``shamt``
    * I-type ALU: ``rt``, ``rs``, ``imm``
    * load/store: ``rt``, ``rs`` (base), ``imm`` (offset)
    * branch: ``rs`` (, ``rt``), ``imm`` = word offset from next instr
    * J/JAL: ``target`` = absolute host address
    * JR/JALR: ``rs`` (, ``rd`` = link)
    * EXITB: ``imm`` = :class:`ExitReason`
    """

    op: HostOp
    rd: HostReg = HostReg.ZERO
    rs: HostReg = HostReg.ZERO
    rt: HostReg = HostReg.ZERO
    imm: int = 0
    shamt: int = 0
    target: int = 0

    def __reduce__(self):
        # one constructor call per instruction loads faster than the
        # slotted dataclass's field-by-field __setstate__ (176.gcc's row
        # pack holds ~17k distinct instructions)
        return HostInstr, (self.op, self.rd, self.rs, self.rt, self.imm,
                           self.shamt, self.target)

    def __str__(self) -> str:
        op = self.op
        name = op.value
        if op in R_TYPE_OPS:
            return f"{name} ${self.rd.name.lower()}, ${self.rs.name.lower()}, ${self.rt.name.lower()}"
        if op in (HostOp.SLL, HostOp.SRL, HostOp.SRA):
            return f"{name} ${self.rd.name.lower()}, ${self.rt.name.lower()}, {self.shamt}"
        if op in (HostOp.MULT, HostOp.MULTU, HostOp.DIV, HostOp.DIVU):
            return f"{name} ${self.rs.name.lower()}, ${self.rt.name.lower()}"
        if op in (HostOp.MFHI, HostOp.MFLO):
            return f"{name} ${self.rd.name.lower()}"
        if op in I_ALU_OPS:
            return f"{name} ${self.rt.name.lower()}, ${self.rs.name.lower()}, {self.imm}"
        if op is HostOp.LUI:
            return f"{name} ${self.rt.name.lower()}, {self.imm:#x}"
        if op in MEMORY_OPS:
            return f"{name} ${self.rt.name.lower()}, {self.imm}(${self.rs.name.lower()})"
        if op in BRANCH2_OPS:
            return f"{name} ${self.rs.name.lower()}, ${self.rt.name.lower()}, {self.imm}"
        if op in BRANCH1_OPS:
            return f"{name} ${self.rs.name.lower()}, {self.imm}"
        if op in (HostOp.J, HostOp.JAL):
            return f"{name} {self.target:#x}"
        if op is HostOp.JR:
            return f"{name} ${self.rs.name.lower()}"
        if op is HostOp.JALR:
            return f"{name} ${self.rd.name.lower()}, ${self.rs.name.lower()}"
        if op is HostOp.EXITB:
            return f"exitb {ExitReason(self.imm).name.lower()}"
        return name  # pragma: no cover

    def reads(self) -> Tuple[HostReg, ...]:
        """Registers this instruction reads (for scheduling/liveness)."""
        return SOURCES[self.op](self)

    def writes(self) -> Optional[HostReg]:
        """The register this instruction writes, if any."""
        dest = DEST[self.op]
        return None if dest is None else dest(self)


_V0_ONLY = (HostReg.V0,)


def _sources_fn(op: HostOp) -> Callable[[HostInstr], Tuple[HostReg, ...]]:
    if op in R_TYPE_OPS or op in (HostOp.MULT, HostOp.MULTU, HostOp.DIV, HostOp.DIVU):
        return attrgetter("rs", "rt")
    if op in (HostOp.SLL, HostOp.SRL, HostOp.SRA):
        return lambda i: (i.rt,)
    if op in I_ALU_OPS or op in LOAD_OPS:
        return lambda i: (i.rs,)
    if op in STORE_OPS or op in BRANCH2_OPS:
        return attrgetter("rs", "rt")
    if op in BRANCH1_OPS or op in (HostOp.JR, HostOp.JALR):
        return lambda i: (i.rs,)
    if op is HostOp.EXITB:
        return lambda i: _V0_ONLY
    return lambda i: ()


def _dest_fn(op: HostOp) -> Optional[Callable[[HostInstr], HostReg]]:
    if op in R_TYPE_OPS or op in (HostOp.SLL, HostOp.SRL, HostOp.SRA):
        return attrgetter("rd")
    if op in (HostOp.MFHI, HostOp.MFLO, HostOp.JALR):
        return attrgetter("rd")
    if op in I_ALU_OPS or op is HostOp.LUI or op in LOAD_OPS:
        return attrgetter("rt")
    if op is HostOp.JAL:
        return lambda i: HostReg.RA
    return None


#: Per-opcode register accessors: ``SOURCES[op](instr)`` is the tuple of
#: registers ``instr`` reads, and ``DEST[op](instr)`` the register it
#: writes (``DEST[op]`` is ``None`` for ops that write none).  The
#: scheduler and the cost estimator index these directly on their
#: per-instruction loops instead of calling :meth:`HostInstr.reads` and
#: :meth:`HostInstr.writes`.
SOURCES: Dict[HostOp, Callable[[HostInstr], Tuple[HostReg, ...]]] = {
    op: _sources_fn(op) for op in HostOp
}
DEST: Dict[HostOp, Optional[Callable[[HostInstr], HostReg]]] = {
    op: _dest_fn(op) for op in HostOp
}


def nop() -> HostInstr:
    """The canonical NOP: ``sll $zero, $zero, 0``."""
    return HostInstr(HostOp.SLL, rd=HostReg.ZERO, rt=HostReg.ZERO, shamt=0)
