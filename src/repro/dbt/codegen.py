"""Host code generation: IR -> relocatable R32 instruction sequences.

Register convention (see :mod:`repro.host.isa`): guest EAX..EDI are
pinned in ``$s0..$s7``, the packed guest flags word lives in ``$t8``,
``$v0`` carries the next guest PC at exits.  IR temps are allocated
over ``$t0-$t7, $v1, $a0-$a3`` by a linear scan with spilling to a
private scratch area; ``$at``/``$t9``/``$v0`` are code-generator
scratch.

Generated blocks are *relocatable*: all internal control flow uses
relative branches, so the runtime can copy a block into any code-cache
level.  Each block ends in exit stubs (``lui v0 / ori v0 / exitb``)
whose first instruction is the chaining patch site.

Instructions are immutable, shared values.  Every instruction a block
emits comes from an intern table keyed by its fields; the
:class:`~repro.dbt.translator.Translator` passes one table to all the
blocks it generates, so equal instructions across them are one object
and a table hit allocates nothing.  A branch whose target label is not
bound yet gets a slot that :meth:`_Emitter.finish` fills with the
finished branch.  The translator also passes one FLAGS-sequence memo:
a packed-flag update depends only on its semantics, width, mask and
operand registers, and a few hundred distinct sequences make up most
of the host code of unoptimized blocks, so each is generated once and
replayed as a tuple of interned instructions.  Generated blocks are
unpriced: the translator runs the cost model once per block, after
scheduling.

Flag materialization follows the paper: "our x86 emulator keeps the x86
flags packed in a register and uses insert and extract operations to
access them".  The parity flag needs a 256-entry lookup table that the
runtime installs at :data:`PARITY_TABLE_BASE`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.guest.isa import ConditionCode, Flag
from repro.host.isa import (
    ExitReason,
    FLAGS_HOME,
    GUEST_REG_HOME,
    HostInstr,
    HostOp,
    HostReg,
)
from repro.dbt.block import ExitStub, TranslatedBlock
from repro.dbt.ir import ExitKind, FlagSem, IRBlock, UOp, UOpKind

#: Emulator-private data region (never overlaps guest mappings).
SCRATCH_BASE = 0xC0001000  # spill slots
PARITY_TABLE_BASE = 0xC0002000  # 256-byte even-parity table

#: Registers the temp allocator may hand out.
ALLOCATABLE: Tuple[HostReg, ...] = (
    HostReg.T0,
    HostReg.T1,
    HostReg.T2,
    HostReg.T3,
    HostReg.T4,
    HostReg.T5,
    HostReg.T6,
    HostReg.T7,
    HostReg.V1,
    HostReg.A0,
    HostReg.A1,
    HostReg.A2,
    HostReg.A3,
)

_S1 = HostReg.AT  # codegen scratch 1
_S2 = HostReg.T9  # codegen scratch 2

_ZERO = HostReg.ZERO

_FLAG_BIT = {
    Flag.CF: 1 << Flag.CF,
    Flag.PF: 1 << Flag.PF,
    Flag.ZF: 1 << Flag.ZF,
    Flag.SF: 1 << Flag.SF,
    Flag.OF: 1 << Flag.OF,
}

ALL_FLAG_BITS = 0x0FFF  # flags live in the low 12 bits of $t8


class CodegenError(Exception):
    """Internal code-generation failure (indicates a bug)."""


def parity_table() -> bytes:
    """The 256-byte table: 1 when the byte has even parity."""
    return bytes(1 if bin(i).count("1") % 2 == 0 else 0 for i in range(256))


#: An intern table: instruction fields -> the one shared instance.
InstrTable = Dict[Tuple[HostOp, HostReg, HostReg, HostReg, int, int, int], HostInstr]

#: A FLAGS-sequence memo: ``(sem, width, mask, host register of a / b /
#: result / count)`` -> the interned instructions that update emits.
FlagMemo = Dict[
    Tuple[FlagSem, int, int, Optional[HostReg], Optional[HostReg], Optional[HostReg],
          Optional[HostReg]],
    Tuple[HostInstr, ...],
]


class _Emitter:
    """Instruction buffer with label/fixup support for relative branches.

    Every instruction goes through ``table``, so equal instructions are
    one shared :class:`HostInstr` and a table hit allocates nothing.
    """

    def __init__(self, table: InstrTable) -> None:
        self.instrs: List[Optional[HostInstr]] = []
        self._table = table
        self._fixups: List[Tuple[int, str, HostOp, HostReg, HostReg]] = []
        self._labels: Dict[str, int] = {}
        self._label_counter = 0

    def instr(
        self, op: HostOp, rd: HostReg = _ZERO, rs: HostReg = _ZERO, rt: HostReg = _ZERO,
        imm: int = 0, shamt: int = 0, target: int = 0,
    ) -> HostInstr:
        """The shared instance of the instruction with these fields."""
        key = (op, rd, rs, rt, imm, shamt, target)
        instr = self._table.get(key)
        if instr is None:
            instr = self._table[key] = HostInstr(op, rd, rs, rt, imm, shamt, target)
        return instr

    def emit(
        self, op: HostOp, rd: HostReg = _ZERO, rs: HostReg = _ZERO, rt: HostReg = _ZERO,
        imm: int = 0, shamt: int = 0, target: int = 0,
    ) -> None:
        # interns inline: this is the code generator's innermost call
        key = (op, rd, rs, rt, imm, shamt, target)
        instr = self._table.get(key)
        if instr is None:
            instr = self._table[key] = HostInstr(op, rd, rs, rt, imm, shamt, target)
        self.instrs.append(instr)

    def new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{hint}_{self._label_counter}"

    def branch(self, op: HostOp, label: str, rs: HostReg = _ZERO, rt: HostReg = _ZERO) -> None:
        """Reserve a branch slot; :meth:`finish` builds it once ``label`` binds."""
        self._fixups.append((len(self.instrs), label, op, rs, rt))
        self.instrs.append(None)

    def bind(self, label: str) -> None:
        if label in self._labels:
            raise CodegenError(f"label {label} bound twice")
        self._labels[label] = len(self.instrs)

    def finish(self) -> List[HostInstr]:
        instrs = self.instrs
        for index, label, op, rs, rt in self._fixups:
            target = self._labels.get(label)
            if target is None:
                raise CodegenError(f"unbound label {label}")
            instrs[index] = self.instr(op, rs=rs, rt=rt, imm=target - (index + 1))
        return instrs

    # convenience emitters -------------------------------------------------

    def move(self, dst: HostReg, src: HostReg) -> None:
        if dst is not src:
            self.emit(HostOp.OR, rd=dst, rs=src, rt=_ZERO)

    def load_imm(self, dst: HostReg, value: int) -> None:
        value &= 0xFFFFFFFF
        signed = value - 0x100000000 if value & 0x80000000 else value
        if -0x8000 <= signed <= 0x7FFF:
            self.emit(HostOp.ADDIU, rt=dst, rs=_ZERO, imm=signed)
        elif value & 0xFFFF == 0:
            self.emit(HostOp.LUI, rt=dst, imm=value >> 16)
        else:
            self.emit(HostOp.LUI, rt=dst, imm=value >> 16)
            self.emit(HostOp.ORI, rt=dst, rs=dst, imm=value & 0xFFFF)


class _Allocator:
    """Linear-scan temp allocator with farthest-last-use spilling."""

    def __init__(self, emitter: _Emitter, last_use: Dict[int, int]) -> None:
        self._emitter = emitter
        self._last_use = last_use
        self._free: List[HostReg] = list(reversed(ALLOCATABLE))
        self._reg_of: Dict[int, HostReg] = {}
        self._owner: Dict[HostReg, int] = {}
        self._spill_slot: Dict[int, int] = {}
        self._next_slot = 0
        self.position = 0
        self.spill_count = 0

    def _spill_victim(self, locked: Tuple[int, ...]) -> HostReg:
        candidates = [t for t in self._reg_of if t not in locked]
        if not candidates:
            raise CodegenError("register pressure exceeds pool with all temps locked")
        victim = max(candidates, key=lambda t: self._last_use.get(t, -1))
        reg = self._reg_of.pop(victim)
        del self._owner[reg]
        slot = self._spill_slot.get(victim)
        if slot is None:
            slot = self._next_slot
            self._next_slot += 1
            self._spill_slot[victim] = slot
        self._emitter.emit(HostOp.LUI, rt=_S2, imm=SCRATCH_BASE >> 16)
        self._emitter.emit(HostOp.SW, rt=reg, rs=_S2, imm=(SCRATCH_BASE & 0xFFFF) + 4 * slot)
        self.spill_count += 1
        return reg

    def _take_reg(self, locked: Tuple[int, ...]) -> HostReg:
        if self._free:
            return self._free.pop()
        return self._spill_victim(locked)

    def define(self, temp: int, locked: Tuple[int, ...] = ()) -> HostReg:
        """Allocate a register for a fresh temp definition."""
        if temp in self._reg_of:
            raise CodegenError(f"temp t{temp} defined twice")
        reg = self._take_reg(locked)
        self._reg_of[temp] = reg
        self._owner[reg] = temp
        return reg

    def use(self, temp: int, locked: Tuple[int, ...] = ()) -> HostReg:
        """Register holding ``temp``, reloading from a spill slot if needed."""
        reg = self._reg_of.get(temp)
        if reg is not None:
            return reg
        slot = self._spill_slot.get(temp)
        if slot is None:
            raise CodegenError(f"use of undefined temp t{temp}")
        reg = self._take_reg(locked)
        self._emitter.emit(HostOp.LUI, rt=_S2, imm=SCRATCH_BASE >> 16)
        self._emitter.emit(HostOp.LW, rt=reg, rs=_S2, imm=(SCRATCH_BASE & 0xFFFF) + 4 * slot)
        self._reg_of[temp] = reg
        self._owner[reg] = temp
        return reg

    def release_dead(self) -> None:
        """Free registers of temps whose last use has passed.

        :class:`BlockCodegen` calls it only at the positions where a
        register can die, and it frees them in ``_reg_of`` order.
        """
        position = self.position
        last_use = self._last_use
        reg_of = self._reg_of
        dead = [t for t in reg_of if last_use.get(t, -1) <= position]
        if dead:
            owner = self._owner
            free = self._free
            for temp in dead:
                reg = reg_of.pop(temp)
                del owner[reg]
                free.append(reg)


#: Single-flag conditions: (flag bit mask, its bit position).
_FLAG_CONDITIONS = {
    ConditionCode.E: (0x40, 6),
    ConditionCode.NE: (0x40, 6),
    ConditionCode.B: (0x01, 0),
    ConditionCode.AE: (0x01, 0),
    ConditionCode.S: (0x80, 7),
    ConditionCode.NS: (0x80, 7),
    ConditionCode.O: (0x800, 11),
    ConditionCode.NO: (0x800, 11),
    ConditionCode.P: (0x04, 2),
    ConditionCode.NP: (0x04, 2),
}

#: Single-flag conditions that hold when their flag is clear.
_NEGATED_CONDITIONS = frozenset(
    {ConditionCode.NE, ConditionCode.AE, ConditionCode.NS, ConditionCode.NO, ConditionCode.NP}
)


def _extract_flag(emitter: _Emitter, bit_mask: int, shift: int, into: HostReg) -> None:
    emitter.emit(HostOp.ANDI, rt=into, rs=FLAGS_HOME, imm=bit_mask)
    if shift:
        emitter.emit(HostOp.SRL, rd=into, rt=into, shamt=shift)


def emit_condition_value(emitter: _Emitter, cc: ConditionCode, dst: HostReg) -> None:
    """Materialize condition ``cc`` from the packed flags into ``dst`` (0/1).

    Uses ``_S2`` as scratch for the two-flag conditions.
    """
    single = _FLAG_CONDITIONS.get(cc)
    if single is not None:
        _extract_flag(emitter, single[0], single[1], dst)
        if cc in _NEGATED_CONDITIONS:
            emitter.emit(HostOp.XORI, rt=dst, rs=dst, imm=1)
        return

    if cc in (ConditionCode.BE, ConditionCode.A):
        emitter.emit(HostOp.ANDI, rt=dst, rs=FLAGS_HOME, imm=0x41)
        if cc is ConditionCode.BE:
            emitter.emit(HostOp.SLTU, rd=dst, rs=_ZERO, rt=dst)
        else:
            emitter.emit(HostOp.SLTIU, rt=dst, rs=dst, imm=1)
        return

    # signed conditions need SF xor OF
    _extract_flag(emitter, 0x80, 7, dst)
    _extract_flag(emitter, 0x800, 11, _S2)
    emitter.emit(HostOp.XOR, rd=dst, rs=dst, rt=_S2)
    if cc in (ConditionCode.LE, ConditionCode.G):
        _extract_flag(emitter, 0x40, 6, _S2)
        emitter.emit(HostOp.OR, rd=dst, rs=dst, rt=_S2)
    if cc in (ConditionCode.GE, ConditionCode.G):
        emitter.emit(HostOp.XORI, rt=dst, rs=dst, imm=1)


class _FlagCodegen:
    """Emits packed-flag update sequences for FLAGS micro-ops.

    A sequence depends only on the uop's semantics, width and mask and
    on the host registers its operands sit in, so each distinct one is
    generated once and kept in ``memo`` as a tuple of interned
    instructions; a hit extends the buffer with that tuple.  A dynamic
    shift count's skip branch jumps over the rest of the sequence, so
    it is built with its offset known at emit time and memoized with
    the sequence.  The :class:`~repro.dbt.translator.Translator` passes
    one memo to every block it generates, beside its intern table.
    """

    def __init__(self, emitter: _Emitter, memo: FlagMemo) -> None:
        self.e = emitter
        self.memo = memo

    def _or_into_flags(self, reg: HostReg) -> None:
        self.e.emit(HostOp.OR, rd=FLAGS_HOME, rs=FLAGS_HOME, rt=reg)

    def _set_zf(self, result: HostReg) -> None:
        self.e.emit(HostOp.SLTIU, rt=_S1, rs=result, imm=1)
        self.e.emit(HostOp.SLL, rd=_S1, rt=_S1, shamt=6)
        self._or_into_flags(_S1)

    def _set_sf(self, result: HostReg, width: int) -> None:
        if width == 32:
            self.e.emit(HostOp.SRL, rd=_S1, rt=result, shamt=24)
            self.e.emit(HostOp.ANDI, rt=_S1, rs=_S1, imm=0x80)
        else:
            self.e.emit(HostOp.ANDI, rt=_S1, rs=result, imm=0x80)
        self._or_into_flags(_S1)

    def _set_pf(self, result: HostReg) -> None:
        self.e.emit(HostOp.ANDI, rt=_S1, rs=result, imm=0xFF)
        self.e.emit(HostOp.LUI, rt=_S2, imm=PARITY_TABLE_BASE >> 16)
        self.e.emit(HostOp.ADDU, rd=_S2, rs=_S2, rt=_S1)
        self.e.emit(HostOp.LBU, rt=_S1, rs=_S2, imm=PARITY_TABLE_BASE & 0xFFFF)
        self.e.emit(HostOp.SLL, rd=_S1, rt=_S1, shamt=2)
        self._or_into_flags(_S1)

    def _set_bit0(self, value01: HostReg) -> None:
        self._or_into_flags(value01)

    def _set_of_from01(self, value01: HostReg) -> None:
        self.e.emit(HostOp.SLL, rd=_S1, rt=value01, shamt=11)
        self._or_into_flags(_S1)

    def emit(
        self, uop: UOp, a: Optional[HostReg], b: Optional[HostReg],
        result: Optional[HostReg], count: Optional[HostReg],
    ) -> None:
        """Emit the update for one FLAGS uop.

        ``a``, ``b``, ``result`` and ``count`` are the host registers of
        the uop's operand roles (``None`` where the uop has none).
        """
        sem, width, mask = uop.sem, uop.width, uop.mask
        key = (sem, width, mask, a, b, result, count)
        sequence = self.memo.get(key)
        if sequence is not None:
            self.e.instrs.extend(sequence)
            return
        instrs = self.e.instrs
        start = len(instrs)
        if count is not None:
            instrs.append(None)  # the skip branch, built below

        self._emit_update(sem, width, mask, a, b, result, count)

        if count is not None:
            # skip to the instruction after the sequence when count == 0
            instrs[start] = self.e.instr(
                HostOp.BEQ, rs=count, rt=_ZERO, imm=len(instrs) - start - 1
            )
        self.memo[key] = tuple(instrs[start:])

    def _emit_update(self, sem, width, mask, a, b, result, count) -> None:
        # clear the bits we are about to write
        self.e.emit(HostOp.ANDI, rt=FLAGS_HOME, rs=FLAGS_HOME, imm=ALL_FLAG_BITS & ~mask)

        if sem in (FlagSem.IMUL, FlagSem.MUL):
            if mask & (_FLAG_BIT[Flag.CF] | _FLAG_BIT[Flag.OF]):
                self._emit_mul_overflow(sem, b, result, mask)
        else:
            if mask & _FLAG_BIT[Flag.CF]:
                self._emit_cf(sem, width, a, b, result, count)
            if mask & _FLAG_BIT[Flag.OF]:
                self._emit_of(sem, width, a, b, result, count)
        if mask & _FLAG_BIT[Flag.ZF]:
            self._set_zf(result)
        if mask & _FLAG_BIT[Flag.SF]:
            self._set_sf(result, width)
        if mask & _FLAG_BIT[Flag.PF]:
            self._set_pf(result)

    # -- carry ----------------------------------------------------------------

    def _emit_cf(self, sem, width, a, b, result, count) -> None:
        e = self.e
        if sem is FlagSem.ADD:
            if width == 32:
                e.emit(HostOp.SLTU, rd=_S1, rs=result, rt=a)
            else:
                e.emit(HostOp.ADDU, rd=_S1, rs=a, rt=b)
                e.emit(HostOp.SRL, rd=_S1, rt=_S1, shamt=8)
            self._set_bit0(_S1)
        elif sem is FlagSem.SUB:
            e.emit(HostOp.SLTU, rd=_S1, rs=a, rt=b)
            self._set_bit0(_S1)
        elif sem is FlagSem.NEG:
            e.emit(HostOp.SLTU, rd=_S1, rs=_ZERO, rt=a)
            self._set_bit0(_S1)
        elif sem is FlagSem.SHL:
            # the shift count always travels in the FLAGS uop's `b` role
            if width == 32:
                e.emit(HostOp.ADDIU, rt=_S2, rs=_ZERO, imm=32)
                e.emit(HostOp.SUBU, rd=_S2, rs=_S2, rt=b)
                e.emit(HostOp.SRLV, rd=_S1, rs=_S2, rt=a)
            else:
                e.emit(HostOp.SLLV, rd=_S1, rs=b, rt=a)
                e.emit(HostOp.SRL, rd=_S1, rt=_S1, shamt=8)
            e.emit(HostOp.ANDI, rt=_S1, rs=_S1, imm=1)
            self._set_bit0(_S1)
        elif sem in (FlagSem.SHR, FlagSem.SAR):
            source = a
            if sem is FlagSem.SAR and width == 8:
                e.emit(HostOp.SLL, rd=_S1, rt=a, shamt=24)
                e.emit(HostOp.SRA, rd=_S1, rt=_S1, shamt=24)
                source = _S1
            e.emit(HostOp.ADDIU, rt=_S2, rs=b, imm=-1)
            shift_op = HostOp.SRAV if sem is FlagSem.SAR else HostOp.SRLV
            e.emit(shift_op, rd=_S1, rs=_S2, rt=source)
            e.emit(HostOp.ANDI, rt=_S1, rs=_S1, imm=1)
            self._set_bit0(_S1)
        # LOGIC/INC/DEC: CF is cleared (logic) or preserved (inc/dec by mask)

    def _emit_mul_overflow(self, sem, high: HostReg, result: HostReg, mask: int) -> None:
        """CF=OF overflow bit for IMUL (hi != sign(lo)) / MUL (hi != 0)."""
        e = self.e
        if sem is FlagSem.IMUL:
            e.emit(HostOp.SRA, rd=_S1, rt=result, shamt=31)
            e.emit(HostOp.XOR, rd=_S1, rs=_S1, rt=high)
            e.emit(HostOp.SLTU, rd=_S1, rs=_ZERO, rt=_S1)
        else:
            e.emit(HostOp.SLTU, rd=_S1, rs=_ZERO, rt=high)
        if mask & _FLAG_BIT[Flag.OF]:
            e.emit(HostOp.SLL, rd=_S2, rt=_S1, shamt=11)
            self._or_into_flags(_S2)
        if mask & _FLAG_BIT[Flag.CF]:
            self._set_bit0(_S1)

    # -- overflow ----------------------------------------------------------

    def _emit_of(self, sem, width, a, b, result, count) -> None:
        e = self.e
        sign_shift = 20 if width == 32 else 4  # bit31->bit11 or bit7->bit11
        sign_mask = 0x800

        if sem in (FlagSem.IMUL, FlagSem.MUL):
            return  # handled together with CF
        if sem is FlagSem.ADD:
            e.emit(HostOp.XOR, rd=_S1, rs=a, rt=b)
            e.emit(HostOp.NOR, rd=_S1, rs=_S1, rt=_ZERO)
            e.emit(HostOp.XOR, rd=_S2, rs=a, rt=result)
            e.emit(HostOp.AND, rd=_S1, rs=_S1, rt=_S2)
        elif sem in (FlagSem.SUB, FlagSem.NEG):
            first = _ZERO if sem is FlagSem.NEG else a
            # NEG computes 0 - a: operands are (0, a)
            op_a = first if sem is FlagSem.NEG else a
            op_b = a if sem is FlagSem.NEG else b
            e.emit(HostOp.XOR, rd=_S1, rs=op_a, rt=op_b)
            e.emit(HostOp.XOR, rd=_S2, rs=op_a, rt=result)
            e.emit(HostOp.AND, rd=_S1, rs=_S1, rt=_S2)
        elif sem is FlagSem.INC:
            boundary = 0x80000000 if width == 32 else 0x80
            self._emit_of_equals(result, boundary)
            return
        elif sem is FlagSem.DEC:
            boundary = 0x7FFFFFFF if width == 32 else 0x7F
            self._emit_of_equals(result, boundary)
            return
        elif sem is FlagSem.SHL:
            # OF = msb(result) != CF.  CF may itself be dead (pruned from
            # the mask), so recompute the carry locally instead of
            # reading bit 0 of $t8.
            if width == 32:
                e.emit(HostOp.ADDIU, rt=_S2, rs=_ZERO, imm=32)
                e.emit(HostOp.SUBU, rd=_S2, rs=_S2, rt=b)
                e.emit(HostOp.SRLV, rd=_S2, rs=_S2, rt=a)
                e.emit(HostOp.ANDI, rt=_S2, rs=_S2, imm=1)
                e.emit(HostOp.SRL, rd=_S1, rt=result, shamt=31)
            else:
                e.emit(HostOp.SLLV, rd=_S2, rs=b, rt=a)
                e.emit(HostOp.SRL, rd=_S2, rt=_S2, shamt=8)
                e.emit(HostOp.ANDI, rt=_S2, rs=_S2, imm=1)
                e.emit(HostOp.SRL, rd=_S1, rt=result, shamt=7)
                e.emit(HostOp.ANDI, rt=_S1, rs=_S1, imm=1)
            e.emit(HostOp.XOR, rd=_S1, rs=_S1, rt=_S2)
            self._set_of_from01(_S1)
            return
        elif sem is FlagSem.SHR:
            # OF = original msb
            if width == 32:
                e.emit(HostOp.SRL, rd=_S1, rt=a, shamt=20)
                e.emit(HostOp.ANDI, rt=_S1, rs=_S1, imm=sign_mask)
            else:
                e.emit(HostOp.ANDI, rt=_S1, rs=a, imm=0x80)
                e.emit(HostOp.SLL, rd=_S1, rt=_S1, shamt=4)
            self._or_into_flags(_S1)
            return
        elif sem is FlagSem.SAR:
            return  # OF = 0: the clear step handled it
        else:  # LOGIC clears OF via the mask clear
            return

        # common tail for ADD/SUB/NEG: _S1 holds the overflow bit at the
        # operand sign position; move it to flag bit 11.
        if width == 32:
            e.emit(HostOp.SRL, rd=_S1, rt=_S1, shamt=sign_shift)
            e.emit(HostOp.ANDI, rt=_S1, rs=_S1, imm=sign_mask)
        else:
            e.emit(HostOp.ANDI, rt=_S1, rs=_S1, imm=0x80)
            e.emit(HostOp.SLL, rd=_S1, rt=_S1, shamt=4)
        self._or_into_flags(_S1)

    def _emit_of_equals(self, result: HostReg, boundary: int) -> None:
        e = self.e
        e.load_imm(_S2, boundary)
        e.emit(HostOp.XOR, rd=_S1, rs=result, rt=_S2)
        e.emit(HostOp.SLTIU, rt=_S1, rs=_S1, imm=1)
        self._set_of_from01(_S1)


class BlockCodegen:
    """Generates one translated block from IR.

    ``table`` is the intern table the block's instructions are drawn
    from and ``flag_memo`` the FLAGS-sequence memo; pass the same two
    dicts to every block of one translator so they all share equal
    instructions and sequences (fresh ones by default).
    """

    def __init__(
        self, ir: IRBlock, table: Optional[InstrTable] = None,
        flag_memo: Optional[FlagMemo] = None,
    ) -> None:
        self.ir = ir
        self.emitter = _Emitter({} if table is None else table)
        self.flags = _FlagCodegen(self.emitter, {} if flag_memo is None else flag_memo)
        self._fault_label: Optional[str] = None
        last_use: Dict[int, int] = {}
        for index, uop in enumerate(ir.uops):
            for src in (uop.a, uop.b, uop.result, uop.count):
                if src is not None:
                    last_use[src] = index
        # Registers can only die where some temp's last use falls or
        # where a temp no later uop reads is defined; the allocator
        # scans for dead temps at those positions alone.
        release_at = set(last_use.values())
        for index, uop in enumerate(ir.uops):
            if uop.dst is not None and last_use.get(uop.dst, -1) <= index:
                release_at.add(index)
        self._release_at = release_at
        if ir.terminator.kind is ExitKind.INDIRECT and ir.terminator.temp is not None:
            last_use[ir.terminator.temp] = len(ir.uops)
        self.alloc = _Allocator(self.emitter, last_use)
        self._stubs: List[ExitStub] = []

    # -- driving ----------------------------------------------------------

    def generate(self) -> TranslatedBlock:
        alloc = self.alloc
        release_at = self._release_at
        emit_uop = self._emit_uop
        for index, uop in enumerate(self.ir.uops):
            alloc.position = index
            emit_uop(uop)
            if index in release_at:
                alloc.release_dead()
        alloc.position = len(self.ir.uops)
        self._emit_terminator()
        if self._fault_label is not None:
            self.emitter.bind(self._fault_label)
            self._emit_exit_stub(ExitReason.FAULT, value=self.ir.guest_address)
        return TranslatedBlock(
            guest_address=self.ir.guest_address,
            guest_length=self.ir.guest_length,
            guest_instr_count=self.ir.guest_instr_count,
            instrs=self.emitter.finish(),
            exit_stubs=self._stubs,
            call_return_address=self.ir.call_return_address,
            exit_kind=self.ir.terminator.kind.value,
        )

    # -- uop emission ----------------------------------------------------

    def _emit_uop(self, uop: UOp) -> None:
        e = self.emitter
        kind = uop.kind

        if kind is UOpKind.CONST:
            e.load_imm(self.alloc.define(uop.dst), uop.imm)
        elif kind is UOpKind.GET:
            e.move(self.alloc.define(uop.dst), GUEST_REG_HOME[uop.reg])
        elif kind is UOpKind.PUT:
            e.move(GUEST_REG_HOME[uop.reg], self.alloc.use(uop.a))
        elif kind is UOpKind.FLAGS:  # before the rarer kinds: unoptimized IR is ~1/6 FLAGS
            use = self.alloc.use
            temps = (uop.a, uop.b, uop.result, uop.count)
            locked = tuple(t for t in temps if t is not None)
            a, b, result, count = [None if t is None else use(t, locked) for t in temps]
            self.flags.emit(uop, a, b, result, count)
        elif kind is UOpKind.GETF:
            e.move(self.alloc.define(uop.dst), FLAGS_HOME)
        elif kind is UOpKind.PUTF:
            e.move(FLAGS_HOME, self.alloc.use(uop.a))
        elif kind is UOpKind.LD:
            addr = self.alloc.use(uop.a)
            dst = self.alloc.define(uop.dst, locked=(uop.a,))
            if uop.width == 32:
                e.emit(HostOp.LW, rt=dst, rs=addr, imm=0)
            elif uop.signed:
                e.emit(HostOp.LB, rt=dst, rs=addr, imm=0)
            else:
                e.emit(HostOp.LBU, rt=dst, rs=addr, imm=0)
        elif kind is UOpKind.ST:
            addr = self.alloc.use(uop.a)
            value = self.alloc.use(uop.b, locked=(uop.a,))
            op = HostOp.SW if uop.width == 32 else HostOp.SB
            e.emit(op, rt=value, rs=addr, imm=0)
        elif kind in _SIMPLE_BINOPS:
            a = self.alloc.use(uop.a)
            b = self.alloc.use(uop.b, locked=(uop.a,))
            dst = self.alloc.define(uop.dst, locked=(uop.a, uop.b))
            host_op = _SIMPLE_BINOPS[kind]
            if kind in (UOpKind.SHL, UOpKind.SHR, UOpKind.SAR):
                e.emit(host_op, rd=dst, rs=b, rt=a)  # shift a by b
            else:
                e.emit(host_op, rd=dst, rs=a, rt=b)
        elif kind in _HILO_BINOPS:
            a = self.alloc.use(uop.a)
            b = self.alloc.use(uop.b, locked=(uop.a,))
            dst = self.alloc.define(uop.dst, locked=(uop.a, uop.b))
            mult_op, move_op = _HILO_BINOPS[kind]
            e.emit(mult_op, rs=a, rt=b)
            e.emit(move_op, rd=dst)
        elif kind is UOpKind.NOT:
            a = self.alloc.use(uop.a)
            dst = self.alloc.define(uop.dst, locked=(uop.a,))
            e.emit(HostOp.NOR, rd=dst, rs=a, rt=_ZERO)
        elif kind is UOpKind.ZEXT8:
            a = self.alloc.use(uop.a)
            dst = self.alloc.define(uop.dst, locked=(uop.a,))
            e.emit(HostOp.ANDI, rt=dst, rs=a, imm=0xFF)
        elif kind is UOpKind.SEXT8:
            a = self.alloc.use(uop.a)
            dst = self.alloc.define(uop.dst, locked=(uop.a,))
            e.emit(HostOp.SLL, rd=dst, rt=a, shamt=24)
            e.emit(HostOp.SRA, rd=dst, rt=dst, shamt=24)
        elif kind is UOpKind.INSERT8:
            a = self.alloc.use(uop.a)
            b = self.alloc.use(uop.b, locked=(uop.a,))
            dst = self.alloc.define(uop.dst, locked=(uop.a, uop.b))
            e.emit(HostOp.SRL, rd=dst, rt=a, shamt=8)
            e.emit(HostOp.SLL, rd=dst, rt=dst, shamt=8)
            e.emit(HostOp.ANDI, rt=_S1, rs=b, imm=0xFF)
            e.emit(HostOp.OR, rd=dst, rs=dst, rt=_S1)
        elif kind is UOpKind.DIV0CHECK:
            a = self.alloc.use(uop.a)
            e.branch(HostOp.BEQ, self._fault(), rs=a, rt=_ZERO)
        elif kind is UOpKind.GUARD:
            a = self.alloc.use(uop.a)
            b = self.alloc.use(uop.b, locked=(uop.a,))
            e.branch(HostOp.BNE, self._fault(), rs=a, rt=b)
        elif kind is UOpKind.SETCC:
            dst = self.alloc.define(uop.dst)
            emit_condition_value(e, uop.cc, dst)
        else:  # pragma: no cover - exhaustive
            raise CodegenError(f"no codegen for {kind}")

    def _fault(self) -> str:
        if self._fault_label is None:
            self._fault_label = self.emitter.new_label("fault")
        return self._fault_label

    # -- terminators and stubs ------------------------------------------------

    def _emit_exit_stub(
        self, kind: ExitReason, value: Optional[int] = None, value_reg: Optional[HostReg] = None
    ) -> None:
        offset = len(self.emitter.instrs)
        guest_target = None
        if value_reg is not None:
            # Pad so every stub is 3 words: patching and relocation stay
            # uniform.  (move + nop + exitb)
            self.emitter.move(HostReg.V0, value_reg)
            self.emitter.emit(HostOp.SLL)  # nop
        else:
            self.emitter.emit(HostOp.LUI, rt=HostReg.V0, imm=(value >> 16) & 0xFFFF)
            self.emitter.emit(HostOp.ORI, rt=HostReg.V0, rs=HostReg.V0, imm=value & 0xFFFF)
            if kind is ExitReason.BRANCH:
                guest_target = value
        self.emitter.emit(HostOp.EXITB, imm=int(kind))
        self._stubs.append(ExitStub(offset_words=offset, kind=kind, guest_target=guest_target))

    def _emit_terminator(self) -> None:
        term = self.ir.terminator
        e = self.emitter
        if term.kind is ExitKind.JUMP:
            self._emit_exit_stub(ExitReason.BRANCH, value=term.target)
        elif term.kind is ExitKind.BRANCH:
            taken = e.new_label("taken")
            emit_condition_value(e, term.cc, _S1)
            e.branch(HostOp.BNE, taken, rs=_S1, rt=_ZERO)
            self._emit_exit_stub(ExitReason.BRANCH, value=term.fallthrough)
            e.bind(taken)
            self._emit_exit_stub(ExitReason.BRANCH, value=term.target)
        elif term.kind is ExitKind.INDIRECT:
            reg = self.alloc.use(term.temp)
            self._emit_exit_stub(ExitReason.BRANCH, value_reg=reg)
        elif term.kind is ExitKind.SYSCALL:
            self._emit_exit_stub(ExitReason.SYSCALL, value=term.target)
        elif term.kind is ExitKind.HALT:
            self._emit_exit_stub(ExitReason.HALT, value=0)
        else:  # pragma: no cover
            raise CodegenError(f"unknown terminator {term.kind}")


_SIMPLE_BINOPS = {
    UOpKind.ADD: HostOp.ADDU,
    UOpKind.SUB: HostOp.SUBU,
    UOpKind.AND: HostOp.AND,
    UOpKind.OR: HostOp.OR,
    UOpKind.XOR: HostOp.XOR,
    UOpKind.SHL: HostOp.SLLV,
    UOpKind.SHR: HostOp.SRLV,
    UOpKind.SAR: HostOp.SRAV,
}

_HILO_BINOPS = {
    UOpKind.MUL: (HostOp.MULT, HostOp.MFLO),
    UOpKind.MULHU: (HostOp.MULTU, HostOp.MFHI),
    UOpKind.MULHS: (HostOp.MULT, HostOp.MFHI),
    UOpKind.DIVU: (HostOp.DIVU, HostOp.MFLO),
    UOpKind.REMU: (HostOp.DIVU, HostOp.MFHI),
    UOpKind.DIVS: (HostOp.DIV, HostOp.MFLO),
    UOpKind.REMS: (HostOp.DIV, HostOp.MFHI),
}


def generate_block(
    ir: IRBlock, table: Optional[InstrTable] = None, flag_memo: Optional[FlagMemo] = None,
) -> TranslatedBlock:
    """Generate host code for an IR block (unpriced: ``cost_cycles`` is 0).

    The translator prices each block once, after scheduling, with its
    own load intrinsics (:func:`repro.dbt.cost.estimate_block_cost`).
    """
    return BlockCodegen(ir, table, flag_memo).generate()
