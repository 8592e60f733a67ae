"""The translator's intermediate representation.

Modeled after Valgrind's UCode (which the paper's frontend borrows):
guest architectural state is only touched through explicit ``GET`` /
``PUT`` (registers) and ``LD`` / ``ST`` (memory) micro-ops, while all
computation happens on an unbounded set of single-assignment virtual
temporaries.  Condition-code side effects are split out into dedicated
``FLAGS`` micro-ops so that dead-flag elimination can delete them
independently of the value computation.

A :class:`IRBlock` covers one guest basic block and carries exactly one
:class:`Terminator`.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.guest.isa import ConditionCode, Flag, Register


class UOpKind(enum.Enum):
    """Micro-operation kinds."""
    __hash__ = object.__hash__  # optimizer dict key; identity == equality

    CONST = "const"  # dst <- imm
    GET = "get"  # dst <- guest reg
    PUT = "put"  # guest reg <- a
    GETF = "getf"  # dst <- packed flags word
    PUTF = "putf"  # packed flags word <- a
    LD = "ld"  # dst <- mem[a] (width 8 or 32; signed controls extension)
    ST = "st"  # mem[a] <- b
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"  # dst <- ~a
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    MUL = "mul"  # dst <- low32(a * b)
    MULHU = "mulhu"  # dst <- high32(unsigned a * b)
    MULHS = "mulhs"  # dst <- high32(signed a * b)
    SEXT8 = "sext8"  # dst <- sign-extend low byte of a
    ZEXT8 = "zext8"  # dst <- a & 0xFF
    INSERT8 = "insert8"  # dst <- (a & ~0xFF) | (b & 0xFF)
    DIVU = "divu"  # dst <- (EDX:EAX via a:b) ... see frontend; plain 32/32
    # The guest's 64/32 divides are lowered by the frontend into a
    # guarded sequence of these plain 32-bit helpers.
    REMU = "remu"
    DIVS = "divs"
    REMS = "rems"
    DIV0CHECK = "div0check"  # exit FAULT if a == 0
    GUARD = "guard"  # exit FAULT if a != b (divide-widening restriction)
    SETCC = "setcc"  # dst <- condition(cc) ? 1 : 0
    FLAGS = "flags"  # update packed flags for semantic `sem`


class FlagSem(enum.Enum):
    """Which guest operation's flag semantics a FLAGS uop implements."""
    __hash__ = object.__hash__

    ADD = "add"
    SUB = "sub"  # also CMP and the compare part of NEG
    LOGIC = "logic"
    INC = "inc"
    DEC = "dec"
    NEG = "neg"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    IMUL = "imul"
    MUL = "mul"


#: Flags architecturally written by each semantics (before liveness pruning).
FLAG_SEM_WRITES: Dict[FlagSem, Tuple[Flag, ...]] = {
    FlagSem.ADD: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.SUB: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.LOGIC: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.INC: (Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.DEC: (Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.NEG: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.SHL: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.SHR: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.SAR: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.IMUL: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
    FlagSem.MUL: (Flag.CF, Flag.PF, Flag.ZF, Flag.SF, Flag.OF),
}


def flag_mask(flags) -> int:
    """Bit mask of an iterable of :class:`Flag` values."""
    mask = 0
    for flag in flags:
        mask |= 1 << flag
    return mask


ALL_FLAGS_MASK = flag_mask(Flag)


#: ``slots=True`` needs Python 3.10; on 3.9 instances keep a ``__dict__``.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
class UOp:
    """One micro-operation.

    Field roles depend on ``kind``:

    * ``dst`` — destination temp (or ``None``)
    * ``a``, ``b`` — source temps (or ``None``)
    * ``imm`` — immediate for CONST
    * ``reg`` — guest register for GET/PUT
    * ``width`` — 8 or 32 for LD/ST and FLAGS
    * ``signed`` — sign-extending load
    * ``cc`` — condition for SETCC
    * ``sem``, ``mask``, ``result``, ``count`` — FLAGS parameters: the
      semantics, which flag bits to materialize, the temp holding the
      operation result, and (for shifts) the temp holding a dynamic
      count whose zero value must preserve flags
    """

    kind: UOpKind
    dst: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    imm: int = 0
    reg: Optional[Register] = None
    width: int = 32
    signed: bool = False
    cc: Optional[ConditionCode] = None
    sem: Optional[FlagSem] = None
    mask: int = 0
    result: Optional[int] = None
    count: Optional[int] = None

    def sources(self) -> Tuple[int, ...]:
        """Temps this uop reads."""
        out = []
        for temp in (self.a, self.b, self.result, self.count):
            if temp is not None:
                out.append(temp)
        return tuple(out)

    def with_sources(self, mapping: Dict[int, int]) -> "UOp":
        """A copy with source temps rewritten through ``mapping``.

        This is the optimizer passes' per-uop inner loop (every rename
        pass calls it once per uop per iteration).  When nothing remaps
        — an empty ``mapping`` or no source in it — it returns ``self``:
        every pass rebuilds its uop list and discards the superseded
        one, so aliasing is safe.  A copy goes through the constructor,
        which is also what a slotted instance needs.
        """
        if not mapping:
            return self
        a, b, result, count = self.a, self.b, self.result, self.count
        get = mapping.get
        if a is not None:
            a = get(a, a)
        if b is not None:
            b = get(b, b)
        if result is not None:
            result = get(result, result)
        if count is not None:
            count = get(count, count)
        if a == self.a and b == self.b and result == self.result and count == self.count:
            return self
        return UOp(self.kind, self.dst, a, b, self.imm, self.reg, self.width, self.signed,
                   self.cc, self.sem, self.mask, result, count)

    def __str__(self) -> str:
        kind = self.kind.value
        if self.kind is UOpKind.CONST:
            return f"t{self.dst} = {self.imm:#x}"
        if self.kind is UOpKind.GET:
            return f"t{self.dst} = get {self.reg.name.lower()}"
        if self.kind is UOpKind.PUT:
            return f"put {self.reg.name.lower()} = t{self.a}"
        if self.kind is UOpKind.GETF:
            return f"t{self.dst} = getf"
        if self.kind is UOpKind.PUTF:
            return f"putf t{self.a}"
        if self.kind is UOpKind.LD:
            sign = "s" if self.signed else "u"
            return f"t{self.dst} = ld.{self.width}{sign} [t{self.a}]"
        if self.kind is UOpKind.ST:
            return f"st.{self.width} [t{self.a}] = t{self.b}"
        if self.kind is UOpKind.SETCC:
            return f"t{self.dst} = set{self.cc.name.lower()}"
        if self.kind is UOpKind.FLAGS:
            flags = "|".join(f.name for f in Flag if self.mask & (1 << f)) or "none"
            count = f" count=t{self.count}" if self.count is not None else ""
            return (
                f"flags.{self.sem.value}.{self.width} {flags}"
                f" a=t{self.a} b=t{self.b} r=t{self.result}{count}"
            )
        if self.kind is UOpKind.DIV0CHECK:
            return f"div0check t{self.a}"
        if self.kind is UOpKind.GUARD:
            return f"guard t{self.a} == t{self.b}"
        if self.kind in (UOpKind.NOT, UOpKind.SEXT8, UOpKind.ZEXT8):
            return f"t{self.dst} = {kind} t{self.a}"
        return f"t{self.dst} = {kind} t{self.a}, t{self.b}"


#: Kinds a dead-code pass must keep even when their ``dst`` is unread.
SIDE_EFFECT_KINDS = frozenset(
    {UOpKind.PUT, UOpKind.PUTF, UOpKind.ST, UOpKind.FLAGS, UOpKind.DIV0CHECK, UOpKind.GUARD}
)


class ExitKind(enum.Enum):
    """How a block transfers control at its end."""
    __hash__ = object.__hash__

    JUMP = "jump"  # unconditional direct
    BRANCH = "branch"  # conditional direct (cc), two targets
    INDIRECT = "indirect"  # computed target in a temp
    SYSCALL = "syscall"  # INT 0x80; resume at `target`
    HALT = "halt"


@dataclass
class Terminator:
    """Block terminator.

    * JUMP: ``target``
    * BRANCH: ``cc``, ``target`` (taken), ``fallthrough``
    * INDIRECT: ``temp`` holds the guest target
    * SYSCALL: ``target`` is the resume address
    * HALT: nothing
    """

    kind: ExitKind
    target: Optional[int] = None
    fallthrough: Optional[int] = None
    cc: Optional[ConditionCode] = None
    temp: Optional[int] = None

    def direct_successors(self) -> Tuple[int, ...]:
        """Statically known successor guest addresses."""
        out = []
        if self.kind in (ExitKind.JUMP, ExitKind.BRANCH, ExitKind.SYSCALL):
            if self.target is not None:
                out.append(self.target)
        if self.kind is ExitKind.BRANCH and self.fallthrough is not None:
            out.append(self.fallthrough)
        return tuple(out)

    def __str__(self) -> str:
        if self.kind is ExitKind.JUMP:
            return f"jump {self.target:#x}"
        if self.kind is ExitKind.BRANCH:
            return f"branch.{self.cc.name.lower()} {self.target:#x} else {self.fallthrough:#x}"
        if self.kind is ExitKind.INDIRECT:
            return f"indirect t{self.temp}"
        if self.kind is ExitKind.SYSCALL:
            return f"syscall resume {self.target:#x}"
        return "halt"


@dataclass
class IRBlock:
    """One guest basic block in IR form."""

    guest_address: int
    guest_length: int  # bytes of guest code covered
    guest_instr_count: int
    uops: List[UOp] = field(default_factory=list)
    terminator: Terminator = field(default_factory=lambda: Terminator(ExitKind.HALT))
    next_temp: int = 0
    #: guest address of the instruction after a CALL (return-predictor hint)
    call_return_address: Optional[int] = None

    def new_temp(self) -> int:
        temp = self.next_temp
        self.next_temp += 1
        return temp

    def emit(self, uop: UOp) -> Optional[int]:
        self.uops.append(uop)
        return uop.dst

    def pretty(self) -> str:
        """Human-readable dump (used by the pipeline example)."""
        lines = [f"block {self.guest_address:#x} ({self.guest_instr_count} guest instrs):"]
        lines += [f"  {uop}" for uop in self.uops]
        lines.append(f"  {self.terminator}")
        return "\n".join(lines)
