"""Dead code and dead guest-register store elimination.

Two backward passes:

1. *Dead PUT elimination* — a ``PUT reg`` whose value is overwritten by
   a later ``PUT`` to the same register with no intervening ``GET`` is
   invisible (all guest registers are live at block exit, so only
   intra-block shadowed PUTs die).
2. *Dead value elimination* — any side-effect-free uop whose
   destination temp is never read is deleted; iterates to a fixed point
   implicitly because uses are collected on the fly in one backward
   sweep (single-assignment temps make this sound).
"""

from __future__ import annotations

from typing import Set

from repro.guest.isa import Register
from repro.dbt.ir import SIDE_EFFECT_KINDS, ExitKind, IRBlock, UOpKind


PASS_NAME = "dce"


def eliminate_dead_code(block: IRBlock) -> int:
    """Remove dead uops (in place); returns how many were deleted."""
    removed = _dead_puts(block)
    removed += _dead_values(block)
    return removed


def _dead_puts(block: IRBlock) -> int:
    live_regs: Set[Register] = set(Register)  # all live at exit
    removed = 0
    kept = []
    for uop in reversed(block.uops):
        if uop.kind is UOpKind.PUT:
            if uop.reg not in live_regs:
                removed += 1
                continue
            live_regs.discard(uop.reg)
        elif uop.kind is UOpKind.GET:
            live_regs.add(uop.reg)
        kept.append(uop)
    kept.reverse()
    block.uops = kept
    return removed


def _dead_values(block: IRBlock) -> int:
    used: Set[int] = set()
    term = block.terminator
    if term.kind is ExitKind.INDIRECT and term.temp is not None:
        used.add(term.temp)

    # ``UOp.sources()``, inlined: this loop runs once per uop per
    # optimizer round
    add = used.add
    removed = 0
    kept = []
    for uop in reversed(block.uops):
        dst = uop.dst
        if dst is not None and dst not in used and uop.kind not in SIDE_EFFECT_KINDS:
            removed += 1
            continue
        for temp in (uop.a, uop.b, uop.result, uop.count):
            if temp is not None:
                add(temp)
        kept.append(uop)
    kept.reverse()
    block.uops = kept
    return removed
