"""Cross-block flag liveness by peeking at successor guest code.

Intra-block dead-flag elimination alone must assume every flag is live
at block exit, which forces eager materialization of rarely-read flags
(the parity flag costs a table lookup per ALU op).  This pass scans the
guest instructions reachable from a block's *statically known*
successors — following direct jumps and bounded conditional fanout —
and computes which flags can actually be observed before being
overwritten.  Anything unresolvable (indirect branches, calls, returns,
system calls, decode failures, fuel exhaustion) is conservatively live.

The result is a sound ``live_out`` mask for
:func:`repro.dbt.optimizer.deadflags.eliminate_dead_flags`: a flag
pruned here is overwritten on **every** observable path before any read.
"""

from __future__ import annotations

from typing import Iterable

from repro.guest.decoder import DecodeError, decode_instruction
from repro.guest.interpreter import GuestFault
from repro.guest.isa import (
    Immediate,
    Instruction,
    Op,
    flags_read,
    flags_written,
)
from repro.guest.memory import MemoryFault
from repro.dbt.frontend import CodeReader
from repro.dbt.ir import ALL_FLAGS_MASK, flag_mask

PASS_NAME = "flagpeek"

#: Total instructions one liveness query may examine.
DEFAULT_FUEL = 48

#: Conditional-branch recursion limit.
MAX_BRANCH_DEPTH = 3

_SHIFT_OPS = (Op.SHL, Op.SHR, Op.SAR)

#: Ops beyond which scanning cannot see (unknown control flow).
_OPAQUE_OPS = frozenset({Op.CALL, Op.RET, Op.INT, Op.HLT})


def _definitely_writes(instr: Instruction) -> int:
    """Mask of flags this instruction writes on *every* execution."""
    if instr.op in _SHIFT_OPS:
        # a zero shift count preserves flags; only a non-zero immediate
        # count is a definite writer
        if isinstance(instr.src, Immediate) and (instr.src.value & 31) != 0:
            return flag_mask(flags_written(instr))
        return 0
    return flag_mask(flags_written(instr))


def _scan(read_code: CodeReader, pc: int, written: int, fuel: int, depth: int) -> int:
    """Flags read before being overwritten on paths from ``pc``."""
    live = 0
    while fuel > 0:
        try:
            window = read_code(pc, 16)
            instr = decode_instruction(window, 0, pc)
        except (DecodeError, MemoryFault, GuestFault):
            # unreadable or undecodable successor bytes: stay
            # conservative; anything else is a bug and propagates
            return live | (ALL_FLAGS_MASK & ~written)
        fuel -= 1

        live |= flag_mask(flags_read(instr)) & ~written
        written |= _definitely_writes(instr)
        if (live | written) == ALL_FLAGS_MASK:
            return live

        op = instr.op
        if op is Op.JCC:
            if depth <= 0:
                return live | (ALL_FLAGS_MASK & ~written)
            taken = _scan(read_code, instr.target, written, fuel // 2, depth - 1)
            fallthrough = _scan(
                read_code, instr.next_address, written, fuel // 2, depth - 1
            )
            return live | taken | fallthrough
        if op is Op.JMP:
            if instr.target is None:
                return live | (ALL_FLAGS_MASK & ~written)
            pc = instr.target
            continue
        if op in _OPAQUE_OPS:
            return live | (ALL_FLAGS_MASK & ~written)
        pc = instr.next_address
    return live | (ALL_FLAGS_MASK & ~written)


def successor_flag_liveness(
    read_code: CodeReader,
    successors: Iterable[int],
    fuel: int = DEFAULT_FUEL,
) -> int:
    """Union of live-in flag masks over the given successor addresses."""
    live = 0
    targets = list(successors)
    if not targets:
        return ALL_FLAGS_MASK
    per_target_fuel = max(8, fuel // len(targets))
    for target in targets:
        live |= _scan(read_code, target, written=0, fuel=per_target_fuel,
                      depth=MAX_BRANCH_DEPTH)
        if live == ALL_FLAGS_MASK:
            break
    return live
