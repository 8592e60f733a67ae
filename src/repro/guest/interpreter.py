"""VX86 reference interpreter.

The golden model of the guest architecture: the translator's output is
differentially tested against this interpreter, and the timing-mode
virtual machine uses it for functional execution while charging cycles
from the translated code's cost model.

An optional :class:`AccessObserver` receives every data memory access,
which is how the memory-system and reference Pentium III timing models
observe the run without duplicating the functional semantics.  The
observer's access stream and ``stats["instructions"]`` are the whole
execution record: nothing else is counted.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from repro.common.bitops import MASK32, sext8, u32
from repro.common.stats import StatSet
from repro.guest import flags as flag_ops
from repro.guest.decoder import DecodeError, decode_instruction
from repro.guest.isa import (
    Immediate,
    Instruction,
    MemoryOperand,
    Op,
    Operand,
    Register,
    RegisterOperand,
)
from repro.guest.memory import GuestMemory, MemoryFault
from repro.guest.program import GuestProgram
from repro.guest.syscalls import SYSCALL_VECTOR, SyscallProxy


class GuestFault(Exception):
    """An unrecoverable guest error (SIGSEGV/SIGILL/#DE equivalents)."""

    def __init__(self, address: int, message: str) -> None:
        super().__init__(f"guest fault at {address:#010x}: {message}")
        self.address = address


class StepEvent(enum.Enum):
    """What happened during one :meth:`GuestInterpreter.step`."""

    OK = "ok"
    EXITED = "exited"


class AccessObserver:
    """Callback interface for timing models observing execution.

    The default implementations are no-ops; subclasses override what
    they need.  ``size`` is in bytes.
    """

    def on_read(self, address: int, size: int) -> None:
        """A data load of ``size`` bytes at guest address ``address``."""

    def on_write(self, address: int, size: int) -> None:
        """A data store of ``size`` bytes at guest address ``address``."""


class GuestState:
    """Architectural state: eight GPRs, packed flags, EIP."""

    __slots__ = ("regs", "flags", "eip")

    def __init__(self, entry: int = 0) -> None:
        self.regs: List[int] = [0] * 8
        self.flags: int = 0
        self.eip: int = entry

    def snapshot(self) -> Dict[str, int]:
        """A comparable dict of the full architectural state."""
        state = {reg.name: self.regs[reg] for reg in Register}
        state["FLAGS"] = self.flags
        state["EIP"] = self.eip
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        regs = " ".join(f"{reg.name}={self.regs[reg]:08x}" for reg in Register)
        return f"<GuestState eip={self.eip:08x} flags={self.flags:04x} {regs}>"


class GuestInterpreter:
    """Executes a loaded guest program instruction by instruction."""

    def __init__(
        self,
        memory: GuestMemory,
        entry: int,
        syscalls: Optional[SyscallProxy] = None,
        observer: Optional[AccessObserver] = None,
    ) -> None:
        self.memory = memory
        self.state = GuestState(entry)
        self.syscalls = syscalls or SyscallProxy()
        self.observer = observer
        self.stats = StatSet("guest_interpreter")
        self.exit_code: Optional[int] = None
        self._decode_cache: Dict[int, Instruction] = {}
        # bounds of cached decodes, for cheap self-modifying-code checks
        self._decode_low = 2**32
        self._decode_high = 0
        self._dispatch = self._build_dispatch()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def for_program(
        cls,
        program: GuestProgram,
        stdin: bytes = b"",
        observer: Optional[AccessObserver] = None,
    ) -> "GuestInterpreter":
        """Load ``program`` into fresh memory and build an interpreter."""
        memory = GuestMemory()
        initial_esp = program.load(memory)
        proxy = SyscallProxy(brk_base=program.brk_base, stdin=stdin)
        interp = cls(memory, program.entry, proxy, observer)
        interp.state.regs[Register.ESP] = initial_esp
        return interp

    # -- fetch ----------------------------------------------------------------

    def fetch(self, address: int) -> Instruction:
        """Decode (with caching) the instruction at ``address``."""
        cached = self._decode_cache.get(address)
        if cached is not None:
            return cached
        try:
            window = self.memory.read_bytes(address, 16)
        except MemoryFault as fault:
            raise GuestFault(address, f"instruction fetch: {fault}") from fault
        try:
            instr = decode_instruction(window, 0, address)
        except DecodeError as err:
            raise GuestFault(address, f"illegal instruction: {err}") from err
        self._decode_cache[address] = instr
        if address < self._decode_low:
            self._decode_low = address
        if address > self._decode_high:
            self._decode_high = address
        return instr

    def _note_code_write(self, address: int, size: int) -> None:
        """Self-modifying code: purge decodes a store may have changed.

        Guest instructions are at most 16 bytes, so a write at
        ``address`` can only affect cached decodes starting in
        ``[address - 15, address + size)``.  The bounds check makes the
        common case (data writes far from code) a single comparison.
        """
        if address + size <= self._decode_low or address - 15 > self._decode_high:
            return
        for start in range(address - 15, address + size):
            self._decode_cache.pop(start, None)

    # -- operand access ----------------------------------------------------

    def effective_address(self, operand: MemoryOperand) -> int:
        """Compute the guest virtual address of a memory operand."""
        address = operand.disp
        if operand.base is not None:
            address += self.state.regs[operand.base]
        if operand.index is not None:
            address += self.state.regs[operand.index] * operand.scale
        return u32(address)

    def _read_operand(self, operand: Operand, width: int) -> int:
        if isinstance(operand, RegisterOperand):
            value = self.state.regs[operand.reg]
            return value & 0xFF if width == 8 else value
        if isinstance(operand, Immediate):
            return u32(operand.value) & (0xFF if width == 8 else MASK32)
        address = self.effective_address(operand)
        size = 1 if width == 8 else 4
        if self.observer is not None:
            self.observer.on_read(address, size)
        try:
            if width == 8:
                return self.memory.read_u8(address)
            return self.memory.read_u32(address)
        except MemoryFault as fault:
            raise GuestFault(self.state.eip, str(fault)) from fault

    def _write_operand(self, operand: Operand, value: int, width: int) -> None:
        if isinstance(operand, RegisterOperand):
            if width == 8:
                old = self.state.regs[operand.reg]
                self.state.regs[operand.reg] = (old & ~0xFF) | (value & 0xFF)
            else:
                self.state.regs[operand.reg] = u32(value)
            return
        if isinstance(operand, Immediate):
            raise GuestFault(self.state.eip, "write to immediate operand")
        address = self.effective_address(operand)
        size = 1 if width == 8 else 4
        if self.observer is not None:
            self.observer.on_write(address, size)
        try:
            if width == 8:
                self.memory.write_u8(address, value)
            else:
                self.memory.write_u32(address, value)
        except MemoryFault as fault:
            raise GuestFault(self.state.eip, str(fault)) from fault
        self._note_code_write(address, size)

    # -- stack helpers ---------------------------------------------------------

    def _push(self, value: int) -> None:
        esp = u32(self.state.regs[Register.ESP] - 4)
        self.state.regs[Register.ESP] = esp
        if self.observer is not None:
            self.observer.on_write(esp, 4)
        try:
            self.memory.write_u32(esp, value)
        except MemoryFault as fault:
            raise GuestFault(self.state.eip, str(fault)) from fault
        self._note_code_write(esp, 4)

    def _pop(self) -> int:
        esp = self.state.regs[Register.ESP]
        if self.observer is not None:
            self.observer.on_read(esp, 4)
        try:
            value = self.memory.read_u32(esp)
        except MemoryFault as fault:
            raise GuestFault(self.state.eip, str(fault)) from fault
        self.state.regs[Register.ESP] = u32(esp + 4)
        return value

    # -- execution -------------------------------------------------------------

    def step(self) -> StepEvent:
        """Fetch, decode and execute one instruction."""
        if self.exit_code is not None:
            return StepEvent.EXITED
        instr = self.fetch(self.state.eip)
        self.stats.bump("instructions")
        handler = self._dispatch.get(instr.op)
        if handler is None:
            raise GuestFault(instr.address, f"unimplemented op {instr.op}")
        next_eip = handler(instr)
        if self.exit_code is not None:
            return StepEvent.EXITED
        self.state.eip = instr.next_address if next_eip is None else next_eip
        return StepEvent.OK

    def run(self, max_instructions: int = 10_000_000) -> int:
        """Run until exit; returns the exit code.

        Raises :class:`GuestFault` if the budget is exhausted, which in
        practice flags an accidental infinite loop in a test program.
        """
        from repro.obs import prof

        with prof.active().phase("interpreter"):
            for _ in range(max_instructions):
                if self.step() is StepEvent.EXITED:
                    assert self.exit_code is not None
                    return self.exit_code
        raise GuestFault(self.state.eip, f"exceeded {max_instructions} instructions")

    # -- per-op handlers; each returns the next EIP or None for fall-through --

    def _build_dispatch(self) -> Dict[Op, Callable[[Instruction], Optional[int]]]:
        return {
            Op.ADD: self._exec_add,
            Op.SUB: self._exec_sub,
            Op.CMP: self._exec_cmp,
            Op.AND: self._exec_logic,
            Op.OR: self._exec_logic,
            Op.XOR: self._exec_logic,
            Op.TEST: self._exec_test,
            Op.MOV: self._exec_mov,
            Op.SHL: self._exec_shift,
            Op.SHR: self._exec_shift,
            Op.SAR: self._exec_shift,
            Op.INC: self._exec_inc,
            Op.DEC: self._exec_dec,
            Op.NEG: self._exec_neg,
            Op.NOT: self._exec_not,
            Op.IMUL: self._exec_imul,
            Op.MUL: self._exec_mul,
            Op.DIV: self._exec_div,
            Op.IDIV: self._exec_idiv,
            Op.LEA: self._exec_lea,
            Op.MOVZX: self._exec_movzx,
            Op.MOVSX: self._exec_movsx,
            Op.XCHG: self._exec_xchg,
            Op.CDQ: self._exec_cdq,
            Op.PUSH: self._exec_push,
            Op.POP: self._exec_pop,
            Op.JCC: self._exec_jcc,
            Op.JMP: self._exec_jmp,
            Op.CALL: self._exec_call,
            Op.RET: self._exec_ret,
            Op.INT: self._exec_int,
            Op.SETCC: self._exec_setcc,
            Op.NOP: lambda instr: None,
            Op.HLT: self._exec_hlt,
        }

    def _exec_add(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        b = self._read_operand(instr.src, instr.width)
        result, self.state.flags = flag_ops.alu_add(a, b, self.state.flags, instr.width)
        self._write_operand(instr.dst, result, instr.width)

    def _exec_sub(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        b = self._read_operand(instr.src, instr.width)
        result, self.state.flags = flag_ops.alu_sub(a, b, self.state.flags, instr.width)
        self._write_operand(instr.dst, result, instr.width)

    def _exec_cmp(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        b = self._read_operand(instr.src, instr.width)
        _, self.state.flags = flag_ops.alu_sub(a, b, self.state.flags, instr.width)

    def _exec_logic(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        b = self._read_operand(instr.src, instr.width)
        result, self.state.flags = flag_ops.alu_logic(
            instr.op.value, a, b, self.state.flags, instr.width
        )
        self._write_operand(instr.dst, result, instr.width)

    def _exec_test(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        b = self._read_operand(instr.src, instr.width)
        _, self.state.flags = flag_ops.alu_logic("and", a, b, self.state.flags, instr.width)

    def _exec_mov(self, instr: Instruction) -> None:
        value = self._read_operand(instr.src, instr.width)
        self._write_operand(instr.dst, value, instr.width)

    def _exec_shift(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        count = self._read_operand(instr.src, 32) & 31
        shift = {
            Op.SHL: flag_ops.alu_shl,
            Op.SHR: flag_ops.alu_shr,
            Op.SAR: flag_ops.alu_sar,
        }[instr.op]
        result, self.state.flags = shift(a, count, self.state.flags, instr.width)
        self._write_operand(instr.dst, result, instr.width)

    def _exec_inc(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        result, self.state.flags = flag_ops.alu_inc(a, self.state.flags, instr.width)
        self._write_operand(instr.dst, result, instr.width)

    def _exec_dec(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        result, self.state.flags = flag_ops.alu_dec(a, self.state.flags, instr.width)
        self._write_operand(instr.dst, result, instr.width)

    def _exec_neg(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        result, self.state.flags = flag_ops.alu_neg(a, self.state.flags, instr.width)
        self._write_operand(instr.dst, result, instr.width)

    def _exec_not(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, instr.width)
        mask = 0xFF if instr.width == 8 else MASK32
        self._write_operand(instr.dst, (~a) & mask, instr.width)

    def _exec_imul(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, 32)
        b = self._read_operand(instr.src, 32)
        result, self.state.flags = flag_ops.alu_imul(a, b, self.state.flags)
        self._write_operand(instr.dst, result, 32)

    def _exec_mul(self, instr: Instruction) -> None:
        a = self.state.regs[Register.EAX]
        b = self._read_operand(instr.src, 32)
        low, high, self.state.flags = flag_ops.alu_mul_wide(a, b, self.state.flags)
        self.state.regs[Register.EAX] = low
        self.state.regs[Register.EDX] = high

    def _exec_div(self, instr: Instruction) -> None:
        divisor = self._read_operand(instr.src, 32)
        if divisor == 0:
            raise GuestFault(instr.address, "divide by zero")
        dividend = (self.state.regs[Register.EDX] << 32) | self.state.regs[Register.EAX]
        quotient, remainder = divmod(dividend, divisor)
        if quotient > MASK32:
            raise GuestFault(instr.address, "divide overflow")
        self.state.regs[Register.EAX] = quotient
        self.state.regs[Register.EDX] = remainder

    def _exec_idiv(self, instr: Instruction) -> None:
        raw = self._read_operand(instr.src, 32)
        divisor = raw - 0x100000000 if raw & 0x80000000 else raw
        if divisor == 0:
            raise GuestFault(instr.address, "divide by zero")
        raw64 = (self.state.regs[Register.EDX] << 32) | self.state.regs[Register.EAX]
        dividend = raw64 - (1 << 64) if raw64 & (1 << 63) else raw64
        # Truncating division (C semantics), unlike Python's floor division.
        quotient = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            quotient = -quotient
        remainder = dividend - quotient * divisor
        if not -0x80000000 <= quotient <= 0x7FFFFFFF:
            raise GuestFault(instr.address, "divide overflow")
        self.state.regs[Register.EAX] = u32(quotient)
        self.state.regs[Register.EDX] = u32(remainder)

    def _exec_lea(self, instr: Instruction) -> None:
        assert isinstance(instr.src, MemoryOperand)
        self._write_operand(instr.dst, self.effective_address(instr.src), 32)

    def _exec_movzx(self, instr: Instruction) -> None:
        value = self._read_operand(instr.src, 8)
        self._write_operand(instr.dst, value & 0xFF, 32)

    def _exec_movsx(self, instr: Instruction) -> None:
        value = self._read_operand(instr.src, 8)
        self._write_operand(instr.dst, sext8(value), 32)

    def _exec_xchg(self, instr: Instruction) -> None:
        a = self._read_operand(instr.dst, 32)
        b = self._read_operand(instr.src, 32)
        self._write_operand(instr.dst, b, 32)
        self._write_operand(instr.src, a, 32)

    def _exec_cdq(self, instr: Instruction) -> None:
        eax = self.state.regs[Register.EAX]
        self.state.regs[Register.EDX] = MASK32 if eax & 0x80000000 else 0

    def _exec_push(self, instr: Instruction) -> None:
        value = self._read_operand(instr.dst, 32)
        self._push(value)

    def _exec_pop(self, instr: Instruction) -> None:
        value = self._pop()
        self._write_operand(instr.dst, value, 32)

    def _exec_jcc(self, instr: Instruction) -> Optional[int]:
        if flag_ops.evaluate_condition(instr.cc, self.state.flags):
            return instr.target
        return instr.next_address

    def _exec_jmp(self, instr: Instruction) -> int:
        if instr.target is not None:
            return instr.target
        return self._read_operand(instr.dst, 32)

    def _exec_call(self, instr: Instruction) -> int:
        if instr.target is not None:
            target = instr.target
        else:
            target = self._read_operand(instr.dst, 32)
        self._push(instr.next_address)
        return target

    def _exec_ret(self, instr: Instruction) -> int:
        target = self._pop()
        if instr.imm:
            self.state.regs[Register.ESP] = u32(self.state.regs[Register.ESP] + instr.imm)
        return target

    def _exec_int(self, instr: Instruction) -> None:
        if instr.imm != SYSCALL_VECTOR:
            raise GuestFault(instr.address, f"unsupported interrupt {instr.imm:#x}")
        regs = self.state.regs
        result = self.syscalls.dispatch(
            regs[Register.EAX],
            [regs[Register.EBX], regs[Register.ECX], regs[Register.EDX]],
            self.memory,
        )
        if result.exited:
            self.exit_code = result.exit_code
            return
        regs[Register.EAX] = u32(result.return_value)

    def _exec_setcc(self, instr: Instruction) -> None:
        value = 1 if flag_ops.evaluate_condition(instr.cc, self.state.flags) else 0
        self._write_operand(instr.dst, value, 8)

    def _exec_hlt(self, instr: Instruction) -> None:
        # HLT in userland is treated as exit(0); workloads use INT 0x80.
        self.exit_code = 0
