"""Block JIT: compile hot guest basic blocks to Python closures.

The paper's thesis is that translation cost belongs off the critical
path; this module applies the same medicine to the simulator itself.
The timing VM's dispatch loop
(:meth:`repro.vm.timing.TimingVM._dispatch`) runs every block one of
two ways:

1. **interpreter steps** — ``count`` calls of the reference
   interpreter's ``GuestInterpreter.step``, paying per-instruction
   fetch and dispatch: one decode-cache probe, one ``handler(instr)``
   call, one ``_read_operand`` isinstance ladder and one packed-flags
   helper call per guest instruction;
2. **closures** — once a block has been stepped long enough to have
   paid for its compile (its :data:`DEFAULT_HOT_THRESHOLD`-th
   sighting, the break-even point derived below) the dispatch loop has
   :class:`BlockJit` emit one specialized Python function for the
   whole block and runs that instead.

:class:`BlockJit` owns all per-VM JIT state in one pc-keyed table of
:class:`BlockEntry` rows (sightings, compiled block).  ``_dispatch``
looks each block up once per execution and is its only caller; its
SMC handling at the block boundary is the only code that invalidates
it.  Blocks do not link to each other: every block returns to the
dispatch loop, so no closure reference outlives the block it runs.

What the generated code specializes, relative to the interpreter:

* **registers as locals** — the eight ``state.regs`` list slots used by
  the block are loaded into Python locals once at entry and stored back
  once at exit (and on the fault path);
* **flag elision** — a backward liveness pass over the block's own
  instructions drops the computation of any flag that is provably
  overwritten before it can be read (conditions, SETcc), observed at
  block exit, or exposed by a fault.  Instructions that can fault
  (memory operands, DIV/IDIV, INT) act as barriers that keep every
  flag exact, so fault-time architectural state is always bit-correct;
* **memory inlined** — loads and stores hit ``GuestMemory._pages``
  directly (page dict probe + ``int.from_bytes``), falling back to the
  bound accessors only for page-crossing or unmapped addresses, which
  raise the same :class:`MemoryFault` the interpreter sees;
* **one instruction count** — the guest's only counter,
  ``stats["instructions"]``, is bumped once at block exit.  Every
  potentially-faulting site records its guest address, whether a
  :class:`MemoryFault` there becomes a ``GuestFault``, and how many
  instructions a fault there has executed, so a mid-block fault counts
  exactly what interpreter steps count.

Equivalence contract: for an eligible block, the compiled function is
observationally identical to ``count`` interpreter steps — same
registers, flags, EIP, memory, observer ``on_read``/``on_write`` calls
(addresses, sizes and order), instruction count, exit codes and
faults.  The differential tests drive the same random blocks and the
full workload suite through both paths and assert bit-identical
results.

Eligibility: only full straight-line blocks (control flow at the last
instruction only, all ``count`` instructions fetched from the
interpreter's decode cache and each with an interpreter handler).
Anything else — mid-block control flow, fetch faults, unimplemented
ops — is marked ineligible and keeps running as interpreter steps,
which reproduce its exact behaviour.

Compiled blocks live only in the VM's own table and are never shared
with another VM.  Grid cells reuse guest execution through the
execution record instead (see :mod:`repro.vm.timing`): a replayed cell
runs no guest code, so it needs no closures.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.bitops import u32
from repro.guest import flags as flag_ops
from repro.guest.isa import (
    ALL_FLAGS,
    Flag,
    Immediate,
    Instruction,
    MemoryOperand,
    Op,
    Register,
    RegisterOperand,
    flags_read,
    flags_written,
)
from repro.guest.memory import MemoryFault
from repro.guest.syscalls import SYSCALL_VECTOR
from repro.obs import prof
from repro.obs.metrics import COMPILE_TIME_BUCKETS, MetricsRegistry

#: Compile a block on its Nth sighting (1 = first touch): the
#: ski-rental break-even, where the stepping a block has already cost
#: equals the compile it would buy.  That rule keeps every block's cost
#: within about twice the better of "always step" and "compile on the
#: first sighting", without knowing how often the block will run.
#:
#: Since record/replay, only a row's recording cell executes the guest,
#: so a compile must pay for itself within that one run.  Inputs,
#: measured with the phase profiler on the recording cell (``no_l15``)
#: of every row-workload program (176.gcc and 255.vortex at scale 1.0;
#: 164.gzip, 181.mcf, 197.parser and 256.bzip2 at 0.5) on a 2-core
#: x86-64 container, compiling on the 2nd sighting to sample 3299
#: compiles:
#:
#: * ``jit.compile``: ~450 us + ~110 us per guest instruction (one
#:   instruction ~550 us, 16+ ~2.5 ms); the median compiled block has
#:   5 instructions and costs 0.9 ms, 190 us per instruction on gcc
#:   and vortex, 150-180 us on the compact four;
#: * ``interpreter`` self time, warm (the first sighting's decode
#:   excluded, since every block pays it either way): 7.0-9.9 us per
#:   instruction; ``jit.run`` self time: 1.6-3.3 us per instruction.
#:
#: A block of ``n`` instructions compiling in ``C`` breaks even on the
#: sighting ``C / (n * step) + 1``: 18-25 for the median block of each
#: program, 22 pooled over all 3299.  At this threshold 176.gcc (1572
#: blocks, 3.7 sightings each) compiles none and 255.vortex (7.1 each)
#: 9, while each compact program still compiles its 9-27 hot blocks.
DEFAULT_HOT_THRESHOLD = 22

_MASK32 = 0xFFFFFFFF
_ALL_FLAG_MASK = sum(1 << flag for flag in ALL_FLAGS)

_CONTROL_OPS = frozenset({Op.JCC, Op.JMP, Op.CALL, Op.RET, Op.INT, Op.HLT})

#: Ops with conditionally-written flags (zero shift count writes none);
#: their updates are emitted inside the count-nonzero branch and they
#: never *kill* a flag in the liveness pass.
_SHIFT_OPS = frozenset({Op.SHL, Op.SHR, Op.SAR})


class Ineligible(Exception):
    """The block cannot be compiled; interpreter steps run it instead."""


class CompiledBlock:
    """One compiled block: the closure and its generated ``source``
    (what :mod:`repro.verify.jitverify` proves against the block)."""

    __slots__ = ("fn", "address", "count", "source")

    def __init__(self, fn: Callable, address: int, count: int, source: str) -> None:
        self.fn = fn
        self.address = address
        self.count = count
        self.source = source


def _can_fault(instr: Instruction) -> bool:
    """Instructions that may raise mid-block (liveness barriers)."""
    if instr.op in (Op.DIV, Op.IDIV, Op.INT):
        return True
    return instr.reads_memory() or instr.writes_memory()


def _flag_mask(flags) -> int:
    return sum(1 << flag for flag in flags)


def _live_flag_masks(instrs: List[Instruction]) -> List[int]:
    """Backward liveness: which written flags each instruction must compute.

    ``ALL`` flags are live at block exit (the successor is unknown) and
    at every fault barrier (the fault handler exposes the packed word),
    so fault-time architectural state is bit-correct.  A shift's write
    is conditional (count 0 writes nothing), so shifts compute their
    live flags but never kill liveness.
    """
    computed = [0] * len(instrs)
    live = _ALL_FLAG_MASK
    for index in range(len(instrs) - 1, -1, -1):
        instr = instrs[index]
        written = _flag_mask(flags_written(instr))
        computed[index] = written & live
        if written and instr.op not in _SHIFT_OPS:
            live &= ~written
        live |= _flag_mask(flags_read(instr))
        if _can_fault(instr):
            live = _ALL_FLAG_MASK
    return computed


class _Compiler:
    """Emits the specialized Python source for one straight-line block."""

    def __init__(self, instrs: List[Instruction], address: int, count: int) -> None:
        self.instrs = instrs
        self.address = address
        self.count = count
        self.lines: List[str] = []
        self.indent = "    "
        #: fault sites: (guest address, convert MemoryFault, instructions
        #: a GuestFault there has executed)
        self.sites: List[Tuple[int, bool, int]] = []
        self.regs_read: Set[int] = set()
        self.regs_written: Set[int] = set()
        self.uses_flags = False
        self.uses_memory = False
        self.uses_observer = False
        self.index = 0  # current instruction index

    # -- small emission helpers -------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def _reg(self, reg: Register, write: bool = False) -> str:
        number = int(reg)
        (self.regs_written if write else self.regs_read).add(number)
        return "r%d" % number

    def _site(self, convert: bool) -> None:
        """Mark the next fault-capable statement as a fault site."""
        self.sites.append((self.instrs[self.index].address, convert, self.index + 1))
        self.emit("_ip = %d" % (len(self.sites) - 1))

    # -- operand access ----------------------------------------------------

    def _addr_expr(self, mem: MemoryOperand) -> str:
        terms = []
        if mem.base is not None:
            terms.append(self._reg(mem.base))
        if mem.index is not None:
            term = self._reg(mem.index)
            if mem.scale != 1:
                term = "%s * %d" % (term, mem.scale)
            terms.append(term)
        if not terms:
            return str(u32(mem.disp))
        if mem.disp:
            terms.append(str(mem.disp))
        if len(terms) == 1 and "*" not in terms[0]:
            return terms[0]  # a single register local is already masked
        return "(%s) & 4294967295" % " + ".join(terms)

    def _read_mem(self, mem: MemoryOperand, width: int, dest: str) -> None:
        """Emit a guest load into local ``dest`` (observer + fault site)."""
        self.uses_memory = True
        self.uses_observer = True
        size = 1 if width == 8 else 4
        self.emit("_a = %s" % self._addr_expr(mem))
        self.emit("if OB is not None: OB.on_read(_a, %d)" % size)
        self._site(convert=True)
        self.emit("_p = MP.get(_a >> 12)")
        if width == 8:
            self.emit("%s = _p[_a & 4095] if _p is not None else M.read_u8(_a)" % dest)
        else:
            self.emit("_o = _a & 4095")
            self.emit("if _p is None or _o > 4092:")
            self.emit("    %s = M.read_u32(_a)" % dest)
            self.emit("else:")
            self.emit("    %s = _FB(_p[_o:_o + 4], 'little')" % dest)

    def _write_mem(self, mem: MemoryOperand, value: str, width: int) -> None:
        """Emit a guest store (observer + fault site + SMC notification)."""
        self.uses_memory = True
        self.uses_observer = True
        size = 1 if width == 8 else 4
        self.emit("_a = %s" % self._addr_expr(mem))
        self._emit_store_at("_a", value, size)

    def _emit_store_at(self, addr: str, value: str, size: int) -> None:
        self.uses_memory = True
        self.uses_observer = True
        self.emit("if OB is not None: OB.on_write(%s, %d)" % (addr, size))
        self._site(convert=True)
        self.emit("_p = MP.get(%s >> 12)" % addr)
        if size == 1:
            self.emit("if _p is not None:")
            self.emit("    _p[%s & 4095] = %s & 255" % (addr, value))
            self.emit("else:")
            self.emit("    M.write_u8(%s, %s)" % (addr, value))
        else:
            self.emit("_o = %s & 4095" % addr)
            self.emit("if _p is None or _o > 4092:")
            self.emit("    M.write_u32(%s, %s)" % (addr, value))
            self.emit("else:")
            self.emit("    _p[_o:_o + 4] = (%s).to_bytes(4, 'little')" % value)
        # the interpreter's _note_code_write bounds check, inlined so the
        # common data store costs two comparisons; on a hit the method
        # purges decodes (compiled blocks go at the VM's next block
        # boundary, through its SMC page check)
        self.emit("if %s + %d > DL and %s - 15 <= DH: NC(%s, %d)"
                  % (addr, size, addr, addr, size))

    def _read_operand(self, operand, width: int, dest: str) -> str:
        """Return an expression for ``operand``; may emit load statements.

        Register and immediate operands fold into expressions;  memory
        operands load into ``dest`` and return it.
        """
        if isinstance(operand, RegisterOperand):
            reg = self._reg(operand.reg)
            if width == 8:
                self.emit("%s = %s & 255" % (dest, reg))
                return dest
            return reg
        if isinstance(operand, Immediate):
            return str(u32(operand.value) & (0xFF if width == 8 else _MASK32))
        if isinstance(operand, MemoryOperand):
            self._read_mem(operand, width, dest)
            return dest
        raise Ineligible("unsupported operand %r" % (operand,))

    def _write_operand(self, operand, value: str, width: int) -> None:
        if isinstance(operand, RegisterOperand):
            reg = self._reg(operand.reg, write=True)
            if width == 8:
                self.regs_read.add(int(operand.reg))
                self.emit("%s = (%s & 4294967040) | (%s & 255)" % (reg, reg, value))
            else:
                self.emit("%s = %s" % (reg, value))
            return
        if isinstance(operand, MemoryOperand):
            self._write_mem(operand, value, width)
            return
        raise Ineligible("write to non-writable operand %r" % (operand,))

    # -- flag updates ------------------------------------------------------

    def _szp_parts(self, res: str, width: int, computed: int) -> List[str]:
        parts = []
        if computed & (1 << Flag.ZF):
            parts.append("((%s == 0) << 6)" % res)
        if computed & (1 << Flag.SF):
            if width == 8:
                parts.append("(%s & 128)" % res)
            else:
                parts.append("((%s >> 24) & 128)" % res)
        if computed & (1 << Flag.PF):
            parts.append("_PF[%s & 255]" % res)
        return parts

    def _emit_flag_update(self, computed: int, parts: List[str]) -> None:
        if not computed:
            return
        self.uses_flags = True
        if parts:
            self.emit("fl = (fl & ~%d) | %s" % (computed, " | ".join(parts)))
        else:
            self.emit("fl = fl & ~%d" % computed)

    # -- per-op emission ---------------------------------------------------

    def _emit_alu_addsub(self, instr: Instruction, computed: int) -> None:
        width = instr.width
        mask = 0xFF if width == 8 else _MASK32
        sign = 0x80 if width == 8 else 0x80000000
        a = self._read_operand(instr.dst, width, "_va")
        b = self._read_operand(instr.src, width, "_vb")
        add = instr.op is Op.ADD
        if add:
            self.emit("_raw = %s + %s" % (a, b))
            self.emit("_res = _raw & %d" % mask)
        else:
            self.emit("_res = (%s - %s) & %d" % (a, b, mask))
        parts = []
        if computed & (1 << Flag.CF):
            if add:
                parts.append("(_raw >> %d)" % (8 if width == 8 else 32))
            else:
                parts.append("(%s > %s)" % (b, a))
        if computed & (1 << Flag.OF):
            if add:
                ov = "((~(%s ^ %s)) & (%s ^ _res) & %d)" % (a, b, a, sign)
            else:
                ov = "((%s ^ %s) & (%s ^ _res) & %d)" % (a, b, a, sign)
            # land the sign bit on flag bit 11: 0x80 << 4, 0x80000000 >> 20
            parts.append("(%s << 4)" % ov if width == 8 else "(%s >> 20)" % ov)
        parts += self._szp_parts("_res", width, computed)
        self._emit_flag_update(computed, parts)
        if instr.op is not Op.CMP:
            self._write_operand(instr.dst, "_res", width)

    def _emit_logic(self, instr: Instruction, computed: int) -> None:
        width = instr.width
        a = self._read_operand(instr.dst, width, "_va")
        b = self._read_operand(instr.src, width, "_vb")
        sym = {Op.AND: "&", Op.TEST: "&", Op.OR: "|", Op.XOR: "^"}[instr.op]
        self.emit("_res = %s %s %s" % (a, sym, b))
        # CF and OF are cleared; they carry no value parts
        parts = self._szp_parts("_res", width, computed)
        self._emit_flag_update(computed, parts)
        if instr.op not in (Op.TEST,):
            self._write_operand(instr.dst, "_res", width)

    def _emit_incdec(self, instr: Instruction, computed: int) -> None:
        width = instr.width
        if width != 32:
            raise Ineligible("byte-width inc/dec")
        a = self._read_operand(instr.dst, 32, "_va")
        inc = instr.op is Op.INC
        if inc:
            self.emit("_res = (%s + 1) & 4294967295" % a)
            ov = "((~(%s ^ 1)) & (%s ^ _res) & 2147483648)" % (a, a)
        else:
            self.emit("_res = (%s - 1) & 4294967295" % a)
            ov = "((%s ^ 1) & (%s ^ _res) & 2147483648)" % (a, a)
        parts = []
        if computed & (1 << Flag.OF):
            parts.append("(%s >> 20)" % ov)
        parts += self._szp_parts("_res", 32, computed)
        self._emit_flag_update(computed, parts)
        self._write_operand(instr.dst, "_res", 32)

    def _emit_neg(self, instr: Instruction, computed: int) -> None:
        width = instr.width
        if width != 32:
            raise Ineligible("byte-width neg")
        a = self._read_operand(instr.dst, 32, "_va")
        self.emit("_res = (-%s) & 4294967295" % a)
        parts = []
        if computed & (1 << Flag.CF):
            parts.append("(%s != 0)" % a)
        if computed & (1 << Flag.OF):
            # alu_sub(0, a): OF = (0^a) & (0^res) & sign = a & res & sign
            parts.append("((%s & _res & 2147483648) >> 20)" % a)
        parts += self._szp_parts("_res", 32, computed)
        self._emit_flag_update(computed, parts)
        self._write_operand(instr.dst, "_res", 32)

    def _emit_not(self, instr: Instruction) -> None:
        width = instr.width
        if width != 32:
            raise Ineligible("byte-width not")
        a = self._read_operand(instr.dst, 32, "_va")
        self.emit("_res = %s ^ 4294967295" % a)
        self._write_operand(instr.dst, "_res", 32)

    def _emit_mov(self, instr: Instruction) -> None:
        value = self._read_operand(instr.src, instr.width, "_va")
        self._write_operand(instr.dst, value, instr.width)

    def _emit_shift(self, instr: Instruction, computed: int) -> None:
        width = instr.width
        if width != 32:
            raise Ineligible("byte-width shift")
        a = self._read_operand(instr.dst, 32, "_va")
        if isinstance(instr.src, Immediate):
            count = u32(instr.src.value) & 31
            if count == 0:
                # zero shift: value unchanged, flags untouched — but a
                # memory destination still performs its read and write
                self._write_operand(instr.dst, a, 32)
                return
            self._emit_shift_body(instr.op, a, str(count), computed, constant=count)
            self._write_operand(instr.dst, "_res", 32)
            return
        count_expr = self._read_operand(instr.src, 32, "_vb")
        self.emit("_c = %s & 31" % count_expr)
        self.emit("if _c:")
        saved = self.indent
        self.indent = saved + "    "
        self._emit_shift_body(instr.op, a, "_c", computed, constant=None)
        self.indent = saved
        self.emit("else:")
        self.emit("    _res = %s" % a)
        self._write_operand(instr.dst, "_res", 32)

    def _emit_shift_body(
        self, op: Op, a: str, count: str, computed: int, constant: Optional[int]
    ) -> None:
        parts = []
        if op is Op.SHL:
            self.emit("_res = (%s << %s) & 4294967295" % (a, count))
            if computed & ((1 << Flag.CF) | (1 << Flag.OF)):
                self.emit("_cy = ((%s << %s) >> 32) & 1" % (a, count))
            if computed & (1 << Flag.CF):
                parts.append("_cy")
            if computed & (1 << Flag.OF):
                parts.append("((( _res >> 31) ^ _cy) << 11)")
        elif op is Op.SHR:
            self.emit("_res = %s >> %s" % (a, count))
            if computed & (1 << Flag.CF):
                parts.append("((%s >> (%s - 1)) & 1)" % (a, count))
            if computed & (1 << Flag.OF):
                parts.append("((%s >> 20) & 2048)" % a)  # original MSB
        else:  # SAR
            self.emit("_s = %s - 4294967296 if %s & 2147483648 else %s" % (a, a, a))
            self.emit("_res = (_s >> %s) & 4294967295" % count)
            if computed & (1 << Flag.CF):
                parts.append("((_s >> (%s - 1)) & 1)" % count)
            # OF is cleared for SAR
        parts += self._szp_parts("_res", 32, computed)
        self._emit_flag_update(computed, parts)

    def _emit_imul(self, instr: Instruction, computed: int) -> None:
        a = self._read_operand(instr.dst, 32, "_va")
        b = self._read_operand(instr.src, 32, "_vb")
        self.emit("_sa = %s - 4294967296 if %s & 2147483648 else %s" % (a, a, a))
        self.emit("_sb = %s - 4294967296 if %s & 2147483648 else %s" % (b, b, b))
        self.emit("_pr = _sa * _sb")
        self.emit("_res = _pr & 4294967295")
        parts = []
        if computed & ((1 << Flag.CF) | (1 << Flag.OF)):
            self.emit("_ov = not -2147483648 <= _pr <= 2147483647")
        if computed & (1 << Flag.CF):
            parts.append("_ov")
        if computed & (1 << Flag.OF):
            parts.append("(_ov << 11)")
        parts += self._szp_parts("_res", 32, computed)
        self._emit_flag_update(computed, parts)
        self._write_operand(instr.dst, "_res", 32)

    def _emit_mul(self, instr: Instruction, computed: int) -> None:
        eax = self._reg(Register.EAX)
        b = self._read_operand(instr.src, 32, "_vb")
        self.emit("_pr = %s * %s" % (eax, b))
        self.emit("_lo = _pr & 4294967295")
        self.emit("_hi = _pr >> 32")
        parts = []
        if computed & (1 << Flag.CF):
            parts.append("(_hi != 0)")
        if computed & (1 << Flag.OF):
            parts.append("((_hi != 0) << 11)")
        parts += self._szp_parts("_lo", 32, computed)
        self._emit_flag_update(computed, parts)
        self.emit("%s = _lo" % self._reg(Register.EAX, write=True))
        self.emit("%s = _hi" % self._reg(Register.EDX, write=True))

    def _emit_div(self, instr: Instruction) -> None:
        b = self._read_operand(instr.src, 32, "_vb")
        addr = instr.address
        self.emit("if %s == 0:" % b)
        self._emit_guest_fault_raise(addr, "divide by zero")
        eax = self._reg(Register.EAX)
        edx = self._reg(Register.EDX)
        self.emit("_q, _rm = divmod((%s << 32) | %s, %s)" % (edx, eax, b))
        self.emit("if _q > 4294967295:")
        self._emit_guest_fault_raise(addr, "divide overflow")
        self.emit("%s = _q" % self._reg(Register.EAX, write=True))
        self.emit("%s = _rm" % self._reg(Register.EDX, write=True))

    def _emit_idiv(self, instr: Instruction) -> None:
        b = self._read_operand(instr.src, 32, "_vb")
        addr = instr.address
        self.emit("_d = %s - 4294967296 if %s & 2147483648 else %s" % (b, b, b))
        self.emit("if _d == 0:")
        self._emit_guest_fault_raise(addr, "divide by zero")
        eax = self._reg(Register.EAX)
        edx = self._reg(Register.EDX)
        self.emit("_n = (%s << 32) | %s" % (edx, eax))
        self.emit("_n = _n - 18446744073709551616 if _n & 9223372036854775808 else _n")
        self.emit("_q = abs(_n) // abs(_d)")
        self.emit("if (_n < 0) != (_d < 0): _q = -_q")
        self.emit("_rm = _n - _q * _d")
        self.emit("if not -2147483648 <= _q <= 2147483647:")
        self._emit_guest_fault_raise(addr, "divide overflow")
        self.emit("%s = _q & 4294967295" % self._reg(Register.EAX, write=True))
        self.emit("%s = _rm & 4294967295" % self._reg(Register.EDX, write=True))

    def _emit_guest_fault_raise(self, addr: int, message: str) -> None:
        """An indented raise of a GuestFault with an exact partial site."""
        saved = self.indent
        self.indent = saved + "    "
        self._site(convert=False)
        self.emit("raise _GF(%d, %r)" % (addr, message))
        self.indent = saved

    def _emit_lea(self, instr: Instruction) -> None:
        if not isinstance(instr.src, MemoryOperand):
            raise Ineligible("lea without memory source")
        addr = self._addr_expr(instr.src)
        self._write_operand(instr.dst, addr, 32)

    def _emit_movx(self, instr: Instruction, signed: bool) -> None:
        value = self._read_operand(instr.src, 8, "_va")
        if signed:
            self.emit("_res = %s | 4294967040 if %s & 128 else %s" % (value, value, value))
            self._write_operand(instr.dst, "_res", 32)
        else:
            self._write_operand(instr.dst, value, 32)

    def _emit_xchg(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, 32, "_va")
        b = self._read_operand(instr.src, 32, "_vb")
        # register pairs swap directly; memory operands re-run the full
        # access sequence per leg (the interpreter recomputes addresses)
        if a != "_va":
            self.emit("_va = %s" % a)
        if b != "_vb":
            self.emit("_vb = %s" % b)
        self._write_operand(instr.dst, "_vb", 32)
        self._write_operand(instr.src, "_va", 32)

    def _emit_cdq(self, instr: Instruction) -> None:
        eax = self._reg(Register.EAX)
        self.emit("%s = 4294967295 if %s & 2147483648 else 0"
                  % (self._reg(Register.EDX, write=True), eax))

    def _emit_push_value(self, value: str) -> None:
        esp = self._reg(Register.ESP, write=True)
        self.regs_read.add(int(Register.ESP))
        self.emit("%s = (%s - 4) & 4294967295" % (esp, esp))
        self._emit_store_at(esp, value, 4)

    def _emit_push(self, instr: Instruction) -> None:
        value = self._read_operand(instr.dst, 32, "_va")
        if value == "r%d" % int(Register.ESP):
            # PUSH ESP stores the pre-decrement value
            self.emit("_va = %s" % value)
            value = "_va"
        self._emit_push_value(value)

    def _emit_pop(self, instr: Instruction) -> None:
        self.uses_memory = True
        self.uses_observer = True
        esp = self._reg(Register.ESP, write=True)
        self.regs_read.add(int(Register.ESP))
        self.emit("if OB is not None: OB.on_read(%s, 4)" % esp)
        self._site(convert=True)
        self.emit("_p = MP.get(%s >> 12)" % esp)
        self.emit("_o = %s & 4095" % esp)
        self.emit("if _p is None or _o > 4092:")
        self.emit("    _va = M.read_u32(%s)" % esp)
        self.emit("else:")
        self.emit("    _va = _FB(_p[_o:_o + 4], 'little')")
        self.emit("%s = (%s + 4) & 4294967295" % (esp, esp))
        self._write_operand(instr.dst, "_va", 32)

    # -- terminators -------------------------------------------------------

    def _emit_jcc(self, instr: Instruction) -> None:
        self.uses_flags = True
        cond = flag_ops.condition_expr(instr.cc, "fl")
        self.emit("if %s:" % cond)
        self.emit("    S.eip = %d" % instr.target)
        self.emit("else:")
        self.emit("    S.eip = %d" % instr.next_address)

    def _emit_jmp(self, instr: Instruction) -> None:
        if instr.target is not None:
            target = str(instr.target)
        else:
            target = self._read_operand(instr.dst, 32, "_va")
        self.emit("S.eip = %s" % target)

    def _emit_call(self, instr: Instruction) -> None:
        if instr.target is not None:
            target = str(instr.target)
        else:
            target = self._read_operand(instr.dst, 32, "_va")
            if target != "_va":
                self.emit("_va = %s" % target)
                target = "_va"
        self._emit_push_value(str(instr.next_address))
        self.emit("S.eip = %s" % target)

    def _emit_ret(self, instr: Instruction) -> None:
        self.uses_memory = True
        self.uses_observer = True
        esp = self._reg(Register.ESP, write=True)
        self.regs_read.add(int(Register.ESP))
        self.emit("if OB is not None: OB.on_read(%s, 4)" % esp)
        self._site(convert=True)
        self.emit("_p = MP.get(%s >> 12)" % esp)
        self.emit("_o = %s & 4095" % esp)
        self.emit("if _p is None or _o > 4092:")
        self.emit("    _va = M.read_u32(%s)" % esp)
        self.emit("else:")
        self.emit("    _va = _FB(_p[_o:_o + 4], 'little')")
        self.emit("%s = (%s + 4) & 4294967295" % (esp, esp))
        if instr.imm:
            self.emit("%s = (%s + %d) & 4294967295" % (esp, esp, instr.imm))
        self.emit("S.eip = _va")

    def _emit_int(self, instr: Instruction) -> None:
        if instr.imm != SYSCALL_VECTOR:
            self._site(convert=False)
            self.emit("raise _GF(%d, %r)"
                      % (instr.address, "unsupported interrupt %#x" % instr.imm))
            return
        # the dispatcher itself may raise a GuestFault or a raw
        # MemoryFault; step() counts the instruction either way and
        # lets the fault escape unconverted, as the handler does here
        self._site(convert=False)
        self.uses_memory = True
        for reg in (Register.EAX, Register.EBX, Register.ECX, Register.EDX):
            self.regs_read.add(int(reg))
        self.emit("_sr = I.syscalls.dispatch(r0, [r3, r1, r2], M)")
        self.emit("if _sr.exited:")
        self.emit("    I.exit_code = _sr.exit_code")
        self.emit("    S.eip = %d" % instr.address)
        self.emit("else:")
        self.emit("    r0 = _sr.return_value & 4294967295")
        self.emit("    S.eip = %d" % instr.next_address)
        self.regs_written.add(int(Register.EAX))

    def _emit_hlt(self, instr: Instruction) -> None:
        self.emit("I.exit_code = 0")
        self.emit("S.eip = %d" % instr.address)

    # -- driver ------------------------------------------------------------

    def _emit_instruction(self, instr: Instruction, computed: int) -> None:
        op = instr.op
        if op in (Op.ADD, Op.SUB, Op.CMP):
            self._emit_alu_addsub(instr, computed)
        elif op in (Op.AND, Op.OR, Op.XOR, Op.TEST):
            self._emit_logic(instr, computed)
        elif op is Op.MOV:
            self._emit_mov(instr)
        elif op in _SHIFT_OPS:
            self._emit_shift(instr, computed)
        elif op in (Op.INC, Op.DEC):
            self._emit_incdec(instr, computed)
        elif op is Op.NEG:
            self._emit_neg(instr, computed)
        elif op is Op.NOT:
            self._emit_not(instr)
        elif op is Op.IMUL:
            self._emit_imul(instr, computed)
        elif op is Op.MUL:
            self._emit_mul(instr, computed)
        elif op is Op.DIV:
            self._emit_div(instr)
        elif op is Op.IDIV:
            self._emit_idiv(instr)
        elif op is Op.LEA:
            self._emit_lea(instr)
        elif op is Op.MOVZX:
            self._emit_movx(instr, signed=False)
        elif op is Op.MOVSX:
            self._emit_movx(instr, signed=True)
        elif op is Op.XCHG:
            self._emit_xchg(instr)
        elif op is Op.CDQ:
            self._emit_cdq(instr)
        elif op is Op.PUSH:
            self._emit_push(instr)
        elif op is Op.POP:
            self._emit_pop(instr)
        elif op is Op.SETCC:
            self.uses_flags = True
            cond = flag_ops.condition_expr(instr.cc, "fl")
            self.emit("_va = 1 if %s else 0" % cond)
            self._write_operand(instr.dst, "_va", 8)
        elif op is Op.NOP:
            pass
        elif op is Op.JCC:
            self._emit_jcc(instr)
        elif op is Op.JMP:
            self._emit_jmp(instr)
        elif op is Op.CALL:
            self._emit_call(instr)
        elif op is Op.RET:
            self._emit_ret(instr)
        elif op is Op.INT:
            self._emit_int(instr)
        elif op is Op.HLT:
            self._emit_hlt(instr)
        else:
            raise Ineligible("unsupported op %s" % op)

    def compile(self) -> CompiledBlock:
        instrs = self.instrs
        if not instrs or len(instrs) != self.count:
            raise Ineligible("fewer instructions than the block")
        for instr in instrs[:-1]:
            if instr.op in _CONTROL_OPS:
                raise Ineligible("control flow before the terminator")
        if any(instr.width == 8 and instr.op not in
               (Op.ADD, Op.SUB, Op.CMP, Op.AND, Op.OR, Op.XOR, Op.TEST,
                Op.MOV, Op.SETCC)
               for instr in instrs):
            raise Ineligible("byte width outside the ALU group")
        computed = _live_flag_masks(instrs)

        last = instrs[-1]
        for index, instr in enumerate(instrs):
            self.index = index
            self.emit("# %s" % instr)
            self._emit_instruction(instr, computed[index])
        if last.op not in _CONTROL_OPS:
            self.emit("S.eip = %d" % last.next_address)

        return self._assemble()

    def _assemble(self) -> CompiledBlock:
        header = [
            "def _jit_block(I):",
            "    S = I.state",
            "    if S.eip != %d: return -1" % self.address,
        ]
        used = sorted(self.regs_read | self.regs_written)
        if used:
            header.append("    R = S.regs")
            for number in used:
                header.append("    r%d = R[%d]" % (number, number))
        if self.uses_memory:
            header.append("    M = I.memory")
            header.append("    MP = M._pages")
            header.append("    DL = I._decode_low")
            header.append("    DH = I._decode_high")
            header.append("    NC = I._note_code_write")
        if self.uses_observer:
            header.append("    OB = I.observer")
        if self.uses_flags:
            header.append("    fl = S.flags")

        writeback = []
        for number in sorted(self.regs_written):
            writeback.append("R[%d] = r%d" % (number, number))
        if self.uses_flags:
            writeback.append("S.flags = fl")

        body: List[str] = []
        if self.sites:
            body.append("    _ip = 0")
            body.append("    try:")
            body += ["    " + line for line in self.lines]
            body.append("    except (_MF, _GF) as e:")
            for line in writeback:
                body.append("        " + line)
            body.append("        _fa, _cv, _n = _SITES[_ip]")
            body.append("        S.eip = _fa")
            body.append("        I.stats.bump('instructions', _n)")
            body.append("        if _cv and e.__class__ is _MF:")
            body.append("            raise _GF(_fa, str(e)) from e")
            body.append("        raise")
        else:
            body += self.lines

        tail = []
        for line in writeback:
            tail.append("    " + line)
        tail.append("    I.stats.bump('instructions', %d)" % self.count)
        tail.append("    return %d" % self.count)

        source = "\n".join(header + body + tail) + "\n"
        namespace = _base_namespace(tuple(self.sites))
        exec(compile(source, "<blockjit:%#x+%d>" % (self.address, self.count), "exec"),
             namespace)
        return CompiledBlock(namespace["_jit_block"], self.address, self.count, source)


def _guest_fault_class():
    from repro.guest.interpreter import GuestFault

    return GuestFault


def _base_namespace(sites: tuple) -> Dict:
    """The globals every compiled block executes against."""
    return {
        "_MF": MemoryFault,
        "_GF": _guest_fault_class(),
        "_PF": flag_ops.PF_TABLE,
        "_FB": int.from_bytes,
        "_SITES": sites,
    }


def unpack_space(data: bytes) -> Dict:
    """Always ``{}``: JIT packs no longer exist.  Kept only because
    ``perfbench/child.py`` imports the name; it goes with that import."""
    return {}


def block_instructions(interp, address: int, count: int) -> List[Instruction]:
    """The ``count`` straight-line instructions of the block at ``address``.

    Read through the interpreter's decode cache, which a block's
    earlier, stepped sightings filled, so a compile does not decode
    again.  Raises :class:`Ineligible` at a fetch fault or at an op the
    interpreter has no handler for: interpreter steps reproduce those.
    """
    handled = interp._dispatch
    instrs = []
    for _ in range(count):
        try:
            instr = interp.fetch(address)
        except _guest_fault_class() as fault:
            raise Ineligible("fetch fault: %s" % fault) from fault
        if instr.op not in handled:
            raise Ineligible("no interpreter handler for %s" % instr.op)
        instrs.append(instr)
        address = instr.next_address
    return instrs


def compile_block(instrs: List[Instruction], address: int, count: int) -> CompiledBlock:
    """Compile one straight-line block; raises :class:`Ineligible`."""
    return _Compiler(list(instrs), address, count).compile()


class _IneligibleMark:
    """The ineligible mark: falsy, so ``if entry.block:`` means "runnable"."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<ineligible>"


#: Stored in the table entry of a block that failed eligibility, so the
#: VM does not retry it.
_INELIGIBLE = _IneligibleMark()


class BlockEntry:
    """One pc's row of the block table.

    ``count`` is the block's instruction count and ``seen`` its
    sightings.  ``block`` is ``None`` until the block is compiled, then
    the :class:`CompiledBlock` or the falsy ineligible mark.
    """

    __slots__ = ("count", "seen", "block")

    def __init__(self, count: int) -> None:
        self.count = count
        self.seen = 0
        self.block = None


class BlockJit:
    """Per-VM block table; shares nothing with any other VM.

    ``table`` maps each guest pc the VM has dispatched to its
    :class:`BlockEntry`.  :meth:`note_execution` counts a sighting and,
    at the hotness threshold, compiles the block into the entry.
    :meth:`invalidate` drops every compiled block on self-modifying
    writes; the sighting counts survive.
    """

    def __init__(self, interp, metrics: Optional[MetricsRegistry] = None) -> None:
        self.interp = interp
        self.table: Dict[int, BlockEntry] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry("blockjit")
        self.profiler = prof.active()

    def note_execution(self, address: int, entry: BlockEntry):
        """Count one sighting of an uncompiled block; returns ``entry.block``.

        :data:`DEFAULT_HOT_THRESHOLD` gates compiles: a block compiles
        on the sighting where its stepping has paid for the compile.
        """
        entry.seen += 1
        if entry.seen < DEFAULT_HOT_THRESHOLD:
            return None
        count = entry.count
        started = time.perf_counter_ns()
        try:
            instrs = block_instructions(self.interp, address, count)
            block = compile_block(instrs, address, count)
        except Ineligible:
            block = _INELIGIBLE
        elapsed_ns = time.perf_counter_ns() - started
        self.profiler.add("jit.compile", elapsed_ns)
        self.metrics.bump("compiles" if block else "ineligible")
        if block:
            self.metrics.bump("compiled_guest_instructions", count)
            self.metrics.observe("compile.us", elapsed_ns / 1e3, COMPILE_TIME_BUCKETS)
        entry.block = block
        return block

    def invalidate(self) -> None:
        """Self-modifying code: drop compiled blocks and failure marks.

        The VM calls this at the block boundary that handles a write to
        a code page.  Entries are reset in place; the sighting counts
        survive, so a patched block recompiles on its next execution.
        """
        entries = self.table.values()
        if not any(entry.block is not None for entry in entries):
            return
        self.metrics.bump("invalidations")
        for entry in entries:
            entry.block = None
